"""Which names the package exports, and which package and scipy modules
the CLI subcommands load.

The package resolves its exported names on first access, and the CLI
imports the oracle, limit, semiclassical and perturbation modules only
in the subcommand or method that runs them, so ``spectrum`` and
``sweep`` load neither those modules nor scipy.  scipy is imported only
inside the oracle functions that call its eigensolver, so the
closed-form subcommands and the Bohr-Sommerfeld comparison never pay
for its import, and the oracle loads scipy's LAPACK extension without
the scipy.linalg package.  Nor do ``spectrum``, ``sweep`` and the
``compare`` methods other than the semiclassical one load numpy, and
neither do one level and a spectrum table called in process.  Each
probe runs in a fresh interpreter, because this process has loaded
every module already.

The program's entry also leaves the cyclic collector off and the heap
frozen for exit; a caller of ``cli.main`` keeps its collector as it was.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ptoscillator

SRC = Path(__file__).resolve().parents[1] / "src"

UNIT = ["--well-depth", "0.375", "--half-width", "1.5707963267948966"]
WIDE = ["--well-depth", "0.5", "--half-width", "157.07963267948966"]
SHALLOW = ["--well-depth", "0.005", "--half-width", "1.5707963267948966"]

# Runs each argv through cli.main after `import ptoscillator` and prints,
# per call, the exit code and the scipy modules loaded so far.
PROBE = """
import contextlib, io, json, sys
import ptoscillator
from ptoscillator import cli
report = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    report.append([code, scipy])
print(json.dumps(report))
"""


def test_every_exported_name_exists():
    # a name deleted from a module but left in an __all__ fails here
    assert len(set(ptoscillator.__all__)) == len(ptoscillator.__all__)
    modules = [ptoscillator] + [
        importlib.import_module(f"ptoscillator.{info.name}")
        for info in pkgutil.iter_modules(ptoscillator.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def run_probe(script: str, *args: str):
    """The JSON that ``script`` prints, run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(done.stdout)


def probe(calls: list[list[str]]) -> list[tuple[int, list[str]]]:
    return [tuple(entry) for entry in run_probe(PROBE, json.dumps(calls))]


# Runs one argv through cli.main and prints the exit code, the package
# modules loaded and whether numpy is among the modules loaded.
MODULES = """
import contextlib, io, json, sys
from ptoscillator import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
modules = sorted(m for m in sys.modules if m.startswith("ptoscillator."))
print(json.dumps([code, modules, "numpy" in sys.modules]))
"""

# what every subcommand loads: the closed forms and their checks
BASE = ["ptoscillator.cli", "ptoscillator.errors", "ptoscillator.parameters", "ptoscillator.spectra"]


# numpy is loaded only by the action quadrature and the oracle
@pytest.mark.parametrize(
    "argv, extra, numpy",
    [
        (["spectrum", *UNIT, "--n-max", "5"], [], False),
        (["sweep", *UNIT, "--sweep-var", "well-depth", "--from", "0", "--to", "2", "--steps", "3"],
         [], False),
        (["sweep", "--well-depth", "0.5", "--sweep-var", "half-width", "--from", "1", "--to", "2",
          "--steps", "3"], [], False),
        (["compare", *SHALLOW, "--method", "fp-limit", "--n-max", "3"], ["limits"], False),
        (["compare", *WIDE, "--method", "ho-limit", "--n-max", "3"], ["limits"], False),
        (["compare", *UNIT, "--method", "semiclassical", "--n-max", "3"], ["semiclassical"],
         True),
        (["compare", *WIDE, "--method", "perturbation", "--n-max", "3"], ["perturbation"], False),
        # the oracle places its levels with the Bohr-Sommerfeld root
        (["validate", *UNIT, "--grid-n", "200", "--levels", "2", "--tolerance", "1"],
         ["oracle", "semiclassical"], True),
    ],
    ids=["spectrum", "sweep-depth", "sweep-width", "fp-limit", "ho-limit", "semiclassical",
         "perturbation", "validate"],
)
def test_each_call_loads_only_its_own_modules(argv, extra, numpy):
    expected = sorted([*BASE, *(f"ptoscillator.{name}" for name in extra)])
    assert run_probe(MODULES, json.dumps(argv)) == [0, expected, numpy]


# Imports the package, then reads one exported name.
BARE_IMPORT = """
import json, sys
import ptoscillator
before = [sorted(m for m in sys.modules if m.startswith("ptoscillator")), "numpy" in sys.modules]
ptoscillator.levels
after = sorted(m for m in sys.modules if m.startswith("ptoscillator"))
print(json.dumps([before, after]))
"""


def test_bare_import_loads_no_numpy():
    before, after = run_probe(BARE_IMPORT)
    assert before == [["ptoscillator"], False]
    assert after == [
        "ptoscillator", "ptoscillator.errors", "ptoscillator.parameters", "ptoscillator.spectra"
    ]


# One level, then a table, in process.
LIBRARY = """
import json, sys
from ptoscillator import PTParameters, levels, spectrum_table
params = PTParameters(1.0, 0.375, 1.5707963267948966)
loaded = []
for call in (lambda: levels(params, 3), lambda: spectrum_table(params, 10)):
    call()
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""


def test_one_level_and_a_table_load_no_numpy():
    assert run_probe(LIBRARY) == [False, False]


def test_closed_form_subcommands_never_load_scipy():
    calls = [
        ["spectrum", *UNIT, "--n-max", "5"],
        ["sweep", *UNIT, "--sweep-var", "well-depth", "--from", "0", "--to", "2", "--steps", "3"],
        ["compare", *SHALLOW, "--method", "fp-limit", "--n-max", "3"],
        ["compare", *WIDE, "--method", "ho-limit", "--n-max", "3"],
        ["compare", *WIDE, "--method", "perturbation", "--n-max", "3"],
    ]
    assert probe(calls) == [(0, [])] * len(calls)


def test_validate_loads_only_the_eigensolver():
    [(code, loaded)] = probe(
        [["validate", *UNIT, "--grid-n", "200", "--levels", "2", "--tolerance", "1"]]
    )
    assert code == 0
    assert [m for m in loaded if m.startswith("scipy.linalg")] == ["scipy.linalg._flapack"]
    assert not [m for m in loaded if m.startswith(("scipy.integrate", "scipy.optimize"))]


# After validate has loaded the LAPACK extension, the caller's own
# `import scipy.linalg` works and its eigensolver agrees with the oracle.
AFTER_VALIDATE = """
import contextlib, io, json, sys
import numpy as np
from ptoscillator import PTParameters, cli, oracle
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
import scipy.linalg
params = PTParameters(mass=1.0, well_depth=0.375, half_width=1.5707963267948966)
(values, diagonal, off_diagonal), _ = oracle._parity_blocks(params, 64, 5)
energy, vector = scipy.linalg.eigh_tridiagonal(
    diagonal, off_diagonal, select="i", select_range=(0, 2)
)
energies, pressures, _ = oracle._fd_levels(params, 64, 1, 5, vectors=True)
print(json.dumps([
    code,
    oracle._lapack()[0] is scipy.linalg.lapack.dstebz,
    bool(np.array_equal(energies[::2], energy)),
    bool(np.array_equal(pressures[::2], 2.0 * (energy - values @ vector**2) / params.half_width)),
]))
"""


def test_scipy_linalg_works_after_validate():
    argv = ["validate", *UNIT, "--grid-n", "200", "--levels", "2", "--tolerance", "1"]
    assert run_probe(AFTER_VALIDATE, json.dumps(argv)) == [0, True, True, True]


def test_semiclassical_compare_loads_no_scipy():
    # the action quadrature and its root find are numpy only
    calls = [["compare", *UNIT, "--method", "semiclassical", "--n-max", "10"]]
    assert probe(calls) == [(0, [])]


# the program's entry leaves the collector off and the heap frozen for
# the interpreter's exit
def test_entry_switches_the_collector_off_and_freezes():
    script = (
        "import contextlib, gc, io, json, sys\n"
        "from ptoscillator import cli\n"
        "sys.argv = ['ptoscillator', *json.loads(sys.argv[1])]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli._script()\n"
        "print(json.dumps([code, gc.isenabled(), gc.get_freeze_count() > 0]))\n"
    )
    assert run_probe(script, json.dumps(["spectrum", *UNIT])) == [0, False, True]


# a caller of main in its own process keeps an enabled, unfrozen collector
def test_main_keeps_the_callers_collector():
    script = (
        "import contextlib, gc, io, json, sys\n"
        "from ptoscillator import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, gc.isenabled(), gc.get_freeze_count()]))\n"
    )
    assert run_probe(script, json.dumps(["spectrum", *UNIT])) == [0, True, 0]
