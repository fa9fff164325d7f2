"""Which names the package exports, and which scipy modules the CLI
subcommands load.

scipy is imported only inside the oracle functions that call its
eigensolver, so the closed-form subcommands and the Bohr-Sommerfeld
comparison never pay for its import, and the oracle loads scipy's LAPACK
extension without the scipy.linalg package.  Each probe runs in a fresh
interpreter, because this process has loaded scipy already.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def probe(calls: list[list[str]]) -> list[tuple[int, list[str]]]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(calls)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return [tuple(entry) for entry in json.loads(done.stdout)]


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
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = ["validate", *UNIT, "--grid-n", "200", "--levels", "2", "--tolerance", "1"]
    done = subprocess.run(
        [sys.executable, "-c", AFTER_VALIDATE, json.dumps(argv)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert json.loads(done.stdout) == [0, True, True, True]


def test_semiclassical_compare_loads_no_scipy():
    # the action quadrature and its root find are numpy only
    calls = [["compare", *UNIT, "--method", "semiclassical", "--n-max", "10"]]
    assert probe(calls) == [(0, [])]
