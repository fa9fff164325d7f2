"""The operations each workload runs.

A workload is one round of operations, generated from the seed and
repeated whole until the run's time is spent.  An operation is a plain
dict, so the same spec can be sent to a worker process, turned into a
CLI subprocess, and checked afterwards:

* ``{"kind": "cli", "argv": [...], "rows": r}``: one ``ptoscillator``
  CLI call, either a fresh subprocess (``cli_calls``) or an in-process
  ``cli.main`` call with stdout captured in memory.
* ``{"kind": "spectrum_table" | "solve_eigenvalues" |
  "numerical_pressure" | "qc_energy_numeric" | "convergence_study",
  ...}``: one public library call.

``rows`` is the number of output rows the operation yields: table
levels, sweep points, compared levels or validated levels.
"""

from __future__ import annotations

import math
import random

# (mass, well_depth, half_width, hbar).  unit, wide and shallow are the
# acceptance-suite CASES; box is the zero-depth well.
CASES = {
    "unit": (1.0, 0.375, math.pi / 2, 1.0),
    "wide": (1.0, 0.5, 50 * math.pi, 1.0),
    "shallow": (1.0, 0.005, math.pi / 2, 1.0),
    "box": (1.0, 0.0, 1.0, 1.0),
}

# The discretization of the oracle is first order, not second, in the
# near-box regime (measured slopes 1.07, 1.18, 1.31 on these grids), so
# this one operation fails its slope check on every round.  It stays in
# the workload so that the fault shows; it is counted in ``failed``, and
# the checker excuses only slopes in the first-order band of that fault
# (``checks.KNOWN_SLOPE_BAND``).
KNOWN_FAULT = "convergence slope of the near-box case is not 2 (oracle is first order there)"

CONVERGENCE_GRIDS = [500, 1000, 2000]
ORACLE_GRID = [4000, 3, 10]  # interior points, Richardson levels, level count


def flags(params) -> list[str]:
    mass, well_depth, half_width, hbar = params
    return [
        "--mass", repr(mass),
        "--well-depth", repr(well_depth),
        "--half-width", repr(half_width),
        "--hbar", repr(hbar),
    ]


def cli_op(argv: list[str], rows: int) -> dict:
    return {"kind": "cli", "argv": argv, "fmt": argv[argv.index("--format") + 1], "rows": rows}


def spectrum(params, n_max: int, fmt: str) -> dict:
    return cli_op(["spectrum", *flags(params), "--n-max", str(n_max), "--format", fmt], n_max)


def sweep(params, var: str, start: float, stop: float, steps: int, n: int, fmt: str) -> dict:
    mass, well_depth, half_width, hbar = params
    fixed = ["--well-depth", repr(well_depth)] if var == "half-width" else ["--half-width", repr(half_width)]
    argv = [
        "sweep", "--mass", repr(mass), "--hbar", repr(hbar), *fixed,
        "--sweep-var", var, "--from", repr(start), "--to", repr(stop),
        "--steps", str(steps), "--n-max", str(n), "--format", fmt,
    ]
    return cli_op(argv, steps)


def compare(case: str, method: str, n_max: int, fmt: str) -> dict:
    argv = ["compare", *flags(CASES[case]), "--method", method, "--n-max", str(n_max), "--format", fmt]
    return cli_op(argv, n_max)


def validate(case: str, fmt: str, extra: tuple[str, ...] = ()) -> dict:
    return cli_op(["validate", *flags(CASES[case]), "--format", fmt, *extra], 5)


def table(case: str, n_max: int) -> dict:
    return {"kind": "spectrum_table", "params": CASES[case], "n_max": n_max, "rows": n_max}


def solve(case: str, grid=ORACLE_GRID) -> dict:
    return {"kind": "solve_eigenvalues", "params": CASES[case], "grid": list(grid), "rows": grid[2]}


def pressure(case: str, n: int) -> dict:
    return {"kind": "numerical_pressure", "params": CASES[case], "n": n, "rows": 1}


def qc_root(case: str, n: int) -> dict:
    return {"kind": "qc_energy_numeric", "params": CASES[case], "n": n, "rows": 1}


def convergence(case: str, grid_sizes=CONVERGENCE_GRIDS, level_count: int = 3) -> dict:
    op = {
        "kind": "convergence_study",
        "params": CASES[case],
        "grid_sizes": list(grid_sizes),
        "level_count": level_count,
        "rows": level_count,
    }
    if case == "shallow":
        op["known_fault"] = KNOWN_FAULT
    return op


def _random_params(rng: random.Random):
    return (1.0, 10.0 ** rng.uniform(-3.0, 2.0), rng.uniform(0.5, 20.0), 1.0)


def cli_calls_round(rng: random.Random) -> list[dict]:
    """Small runs of every subcommand, each inside its valid regime."""
    low = rng.uniform(0.5, 2.0)
    return [
        spectrum(_random_params(rng), 200, "csv"),
        spectrum(_random_params(rng), 300, "json"),
        sweep(_random_params(rng), "half-width", low, low * rng.uniform(10.0, 100.0), 200, 1, "csv"),
        sweep(_random_params(rng), "well-depth", 0.0, 10.0 ** rng.uniform(0.0, 2.0), 200, 2, "json"),
        compare("shallow", "fp-limit", 20, "csv"),
        compare("wide", "ho-limit", 20, "json"),
        compare("wide", "perturbation", 20, "csv"),
        compare("unit", "semiclassical", 10, "json"),
        validate("unit", "csv"),
        validate("wide", "json"),
    ]


def crosscheck_round(rng: random.Random) -> list[dict]:
    """Oracle and semiclassical checks on the three acceptance cases."""
    ops = []
    for case in ("unit", "wide", "shallow"):
        ops.append(solve(case))
        ops.extend(pressure(case, n) for n in range(1, 6))
        ops.extend(qc_root(case, n) for n in range(1, 21))
        ops.append(convergence(case))
    ops.append(validate("unit", "csv"))
    ops.append(validate("wide", "json"))
    return ops


ROUNDS = {
    "cli_calls": cli_calls_round,
    "crosscheck": crosscheck_round,
}

# One small call of each operation kind a workload uses, made during set-up
# so that deferred imports and caches are paid there and not in op timing.
WARMUPS = {
    "cli_calls": [],
    "crosscheck": [
        solve("unit", [64, 3, 2]),
        pressure("unit", 1),
        qc_root("unit", 1),
        convergence("unit", [64, 128], 1),
        validate("unit", "csv", ("--grid-n", "64", "--levels", "1", "--tolerance", "1")),
    ],
}

# The traced run reports every layer on every workload.  A layer that the
# workload itself never calls is measured on this fixed, seed-free round.
PROBE_ROUND = [
    table("unit", 1_000),
    spectrum(CASES["unit"], 1_000, "csv"),
    spectrum(CASES["wide"], 1_000, "json"),
    sweep(CASES["unit"], "half-width", 1.0, 20.0, 1_000, 1, "csv"),
    compare("shallow", "fp-limit", 20, "csv"),
    compare("wide", "ho-limit", 20, "json"),
    compare("wide", "perturbation", 20, "csv"),
    compare("unit", "semiclassical", 10, "json"),
    solve("unit"),
    pressure("unit", 2),
    *(qc_root("unit", n) for n in range(1, 6)),
    convergence("unit"),
    validate("unit", "json"),
]


def make_round(workload: str, seed: int) -> list[dict]:
    """The round of ``workload`` for ``seed``, in its seeded fixed order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = ROUNDS[workload](rng)
    rng.shuffle(ops)
    return ops
