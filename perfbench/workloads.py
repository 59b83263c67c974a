"""Benchmark workloads: seeded CLI invocations and the check of their reports.

Each workload is one experiment kind over a stated size ladder. ``invocations``
turns a seed into the argv lists a run cycles through; ``sweep`` gives the
three-size ladder of the traced run's scaling diagnostic; ``check`` raises
``CheckFailed`` unless a report is correct. Everything here is stdlib-only so
the orchestrator can import it without numpy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

DEFAULT_SEED = 0
DISTINCT = 24  # distinct invocations per run, cycled in a seeded order
SWEEP_REPEATS = 3
MIN_SAMPLES = 100  # the p90 needs ten samples beyond it

SCHEMA_KEYS = ("schema", "experiment", "inputs", "tolerances", "verdict", "tables")
# Floats in columns whose report tolerance is null are compared to the
# reference with the package's default relative tolerance.
INFORMATIONAL_REL = 1e-9


class CheckFailed(Exception):
    """A report is missing, malformed or disagrees with the expected values."""


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    table: str
    columns: tuple[str, ...]
    # (seed rng, index, shape) -> (argv without --out, vertex count)
    argv: Callable[[random.Random, int, object], tuple[list[str], int]]
    # Sizes of the timed loop. Their invocation times must form one mode
    # with no gap: a median that falls between two clusters of sizes jumps
    # from one to the other on a few percent of noise.
    shapes: tuple
    sweep_shapes: tuple  # one size parameter growing, for the scaling fit
    layers: tuple[str, ...]  # layers that must record calls in the traced run
    validate: Callable[[list[str], dict, dict], None]
    key_rows: Callable[[dict], list[int]]


def _uniform_vertices(branching: int, depth: int) -> int:
    return (branching ** (depth + 1) - 1) // (branching - 1)


def _argv_deep_ray(rng: random.Random, i: int, depth: int):
    return ["norms", "--family", "mad", "--depth", str(depth)], depth + 1


def _bushy(experiment: str, family: str, shape: tuple[int, int], rng: random.Random, *extra: str):
    branching, depth = shape
    argv = [experiment, "--family", family, "--depth", str(depth), "--branching", str(branching),
            *extra, "--seed", str(rng.randrange(2**31))]
    return argv, _uniform_vertices(branching, depth)


def _argv_circle(rng: random.Random, i: int, shape: tuple[int, int]):
    return _bushy("integral", "random", shape, rng, "--cases", "1")


def _argv_gram(rng: random.Random, i: int, shape: tuple[int, int]):
    return _bushy("gram", "random_balanced" if i % 2 == 0 else "random", shape, rng)


def _argv_wold(rng: random.Random, i: int, shape: tuple[int, int]):
    return _bushy("wold", "random_balanced", shape, rng, "--cases", "1")


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _close(value: float, expected: float, tol: float) -> bool:
    return abs(value - expected) <= tol * max(1.0, abs(expected))


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _validate_norms(argv: list[str], report: dict, table: dict) -> None:
    depth = int(_flag(argv, "--depth"))
    tol = report["tolerances"]["closed_form_rel"]
    rows = table["rows"]
    _require(len(rows) == depth, f"{len(rows)} power rows for depth {depth}")
    for n, (row_n, e0, op, attained, flagged, surrogate) in enumerate(rows, start=1):
        _require(row_n == n, f"row {n} labelled {row_n}")
        _require(_close(e0, n, tol), f"norm(S^{n} e_0) = {e0}, expected {n}")
        # mad attains its sup within depth 1, so only rows with n + 1 > depth
        # see a window sup that may grow past the horizon.
        _require(flagged is (n + 1 > depth), f"horizon flag {flagged} at n = {n}")
        if not flagged:
            _require(_close(op, n + 1, tol), f"norm(S^{n}) = {op}, expected {n + 1}")
        _require(isinstance(attained, int) and 0 <= attained <= depth - n,
                 f"attained_at {attained} at n = {n}")
        _require(_close(surrogate, op ** (1.0 / n), INFORMATIONAL_REL), f"surrogate at n = {n}")


def _validate_integral(argv: list[str], report: dict, table: dict) -> None:
    tol = report["tolerances"]
    rows = table["rows"]
    _require(len(rows) == int(_flag(argv, "--cases")), "one row per case")
    for case, deg_p, deg_phi, err, k_mono, mono in rows:
        _require(0 <= deg_p <= 8 and 0 <= deg_phi <= 8 and 1 <= k_mono <= 8,
                 f"degrees out of range in case {case}")
        _require(0 <= err <= tol["pairing_abs"], f"quadrature misses the pairing by {err}")
        _require(0 <= mono <= tol["monomial_abs"], f"monomial mean {mono} is not zero")


def _validate_gram(argv: list[str], report: dict, table: dict) -> None:
    depth = int(_flag(argv, "--depth"))
    branching = int(_flag(argv, "--branching"))
    balanced = _flag(argv, "--family") == "random_balanced"
    tol = report["tolerances"]
    _require(report["balanced"] is balanced, f"balanced = {report['balanced']}")
    _require(report["injective"] is True, "bushy fixtures are injective")
    _require(report["regime"] == ("orthogonal-factors" if balanced else "expected-nonorthogonal"),
             f"regime {report['regime']}")
    # One root vector plus (branching - 1) per parent down to depth - 2.
    _require(report["kernel_dim"] == branching ** (depth - 1), f"kernel_dim {report['kernel_dim']}")
    max_p = min(4, depth)
    pairs = [(n, m) for n in range(max_p + 1) for m in range(n + 1, max_p + 1)]
    _require([r[:2] for r in table["rows"]] == [list(p) for p in pairs], "gram pair order")
    peak = 0.0
    for n, m, max_abs, exceeds in table["rows"]:
        # Blocks reach depth - 1, so every power past 1 leaves the window.
        _require(exceeds is (m > 1), f"exceeds_horizon {exceeds} at ({n}, {m})")
        if balanced:
            _require(max_abs <= tol["orthogonality_abs"], f"balanced pairing {max_abs} at ({n}, {m})")
        peak = max(peak, max_abs)
    if not balanced:
        _require(peak >= tol["nonorthogonality_floor"], f"largest pairing {peak} below the floor")


def _validate_wold(argv: list[str], report: dict, table: dict) -> None:
    depth = int(_flag(argv, "--depth"))
    tol = report["tolerances"]["roundtrip_abs"]
    rows = table["rows"]
    _require(len(rows) == int(_flag(argv, "--cases")), "one row per case")
    for case, horizon, err, residual, boundary, layers in rows:
        _require(horizon == depth, f"horizon {horizon}")
        _require(0 <= err <= tol, f"round trip misses by {err}")
        _require(0 < boundary <= 1 + tol and 0 <= residual <= 1 + tol, "norms of a unit input")
        _require(1 <= layers <= depth + 1, f"{layers} nonzero layers")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="deep_ray", experiment="norms", table="power_norms",
            columns=("n", "norm_root", "op_norm", "attained_at", "may_grow_beyond_horizon", "surrogate"),
            argv=_argv_deep_ray, shapes=tuple(range(288, 417)), sweep_shapes=(160, 256, 416),
            layers=("tree", "gallery", "ops.construct", "ops.query", "cli"),
            validate=_validate_norms,
            key_rows=lambda r: sorted({0, 1, len(r) // 2, len(r) - 2, len(r) - 1}),
        ),
        Workload(
            name="circle_quadrature", experiment="integral", table="circle_integrals",
            columns=("case", "poly_degree", "phi_degree", "pairing_error", "monomial_order", "monomial_abs"),
            argv=_argv_circle, shapes=((2, 7),),
            sweep_shapes=((2, 5), (2, 6), (2, 7)),
            layers=("multiplier.gamma", "multiplier.quad", "ops.construct", "cli"),
            validate=_validate_integral,
            key_rows=lambda r: list(range(len(r))),
        ),
        Workload(
            name="kernel_gram", experiment="gram", table="gram_pairings",
            columns=("n", "m", "max_abs", "exceeds_horizon"),
            argv=_argv_gram, shapes=((2, 8),),
            sweep_shapes=((2, 6), (2, 7), (2, 8)),
            layers=("ops.apply", "wold.basis", "wold.gram", "wold.balance", "cli"),
            validate=_validate_gram,
            key_rows=lambda r: list(range(len(r))),
        ),
        Workload(
            name="wold_roundtrip", experiment="wold", table="roundtrips",
            columns=("case", "horizon", "roundtrip_error", "residual_norm", "boundary_norm", "nonzero_layers"),
            argv=_argv_wold, shapes=((3, 7),),
            sweep_shapes=((3, 5), (3, 6), (3, 7)),
            layers=("ops.apply", "wold.basis", "wold.peel", "wold.reconstruct", "cli"),
            validate=_validate_wold,
            key_rows=lambda r: list(range(len(r))),
        ),
    )
}


def invocations(w: Workload, seed: int) -> list[list[str]]:
    """DISTINCT argv lists in a seeded order.

    Shapes are stratified over ``w.shapes``: one draw per equal slice of the
    ladder, so every seed sees the same size mix and runs stay comparable.
    """
    rng = random.Random(f"{w.name}:{seed}")
    out = []
    for i in range(DISTINCT):
        shape = w.shapes[int((i + rng.random()) * len(w.shapes) / DISTINCT)]
        out.append(w.argv(rng, i, shape)[0])
    rng.shuffle(out)
    return out


def sweep(w: Workload, seed: int) -> list[tuple[int, list[list[str]]]]:
    """(vertex count, argv lists) per size of the scaling ladder."""
    rng = random.Random(f"{w.name}:sweep:{seed}")
    ladder = []
    for shape in w.sweep_shapes:
        runs = [w.argv(rng, i, shape) for i in range(SWEEP_REPEATS)]
        ladder.append((runs[0][1], [argv for argv, _ in runs]))
    return ladder


def key_numbers(w: Workload, report: dict) -> dict:
    """The report values pinned by the reference: verdict, scalars, key rows."""
    table = report["tables"][0]
    scalars = {k: v for k, v in report.items() if k not in SCHEMA_KEYS}
    rows = {str(i): table["rows"][i] for i in w.key_rows(table["rows"])}
    return {"verdict": report["verdict"], "scalars": scalars, "rows": rows}


def _same(value, expected, tol: Optional[float]) -> bool:
    if isinstance(expected, bool) or isinstance(value, bool):
        return value is expected
    if isinstance(expected, int) and isinstance(value, int):
        return value == expected
    if isinstance(expected, float) and isinstance(value, (int, float)):
        if not math.isfinite(value):
            return False
        if tol is None:
            return abs(value - expected) <= INFORMATIONAL_REL * max(abs(value), abs(expected))
        return _close(value, expected, tol)
    return value == expected


def _compare_reference(w: Workload, report: dict, expected: dict) -> None:
    got = key_numbers(w, report)
    _require(got["verdict"] == expected["verdict"], "verdict differs from the reference")
    _require(got["scalars"].keys() == expected["scalars"].keys(), "report scalars differ")
    for key, value in expected["scalars"].items():
        _require(_same(got["scalars"][key], value, None), f"{key} differs from the reference")
    _require(got["rows"].keys() == expected["rows"].keys(), "key rows differ")
    tols = [c["tol"] for c in report["tables"][0]["columns"]]
    for i, ref_row in expected["rows"].items():
        row = got["rows"][i]
        for col, value, ref, tol in zip(w.columns, row, ref_row, tols):
            _require(_same(value, ref, tol), f"row {i} {col} = {value}, reference {ref}")


def check(w: Workload, argv: list[str], code: int, report: Optional[dict],
          reference: Optional[dict] = None) -> None:
    """Raise CheckFailed unless one invocation succeeded and its report is right.

    ``reference`` holds the key numbers recorded for this argv at the
    default seed; when given, they must match within the per-column
    tolerances the report declares (flags and integers exactly).
    """
    _require(code == 0, f"exit code {code}")
    _require(isinstance(report, dict), "no report.json")
    missing = [k for k in SCHEMA_KEYS if k not in report]
    _require(not missing, f"report lacks {missing}")
    _require(report["schema"] == 1 and report["experiment"] == w.experiment, "wrong schema or experiment")
    _require(report["verdict"] == "pass", f"verdict {report['verdict']}")
    _require(len(report["tables"]) == 1, "expected one table")
    table = report["tables"][0]
    _require(table.get("name") == w.table, f"table {table.get('name')}")
    _require(tuple(c.get("name") for c in table.get("columns", ())) == w.columns, "column names")
    _require(all(len(r) == len(w.columns) for r in table.get("rows", ())), "ragged rows")
    try:
        w.validate(argv, report, table)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"malformed report: {exc!r}") from None
    if reference is not None:
        _compare_reference(w, report, reference)
