"""Which scipy modules the CLI subcommands load.

scipy is imported inside the oracle and Bohr-Sommerfeld functions that
call it, so the closed-form subcommands never pay for its import.  Each
probe runs in a fresh interpreter, because this process has loaded scipy
already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.startswith(("scipy.integrate", "scipy.optimize"))]
