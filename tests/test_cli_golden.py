"""Golden stdout: exact bytes and exit codes of a fixed matrix of CLI runs.

Each case's stdout is stored in ``tests/golden/<case>.<format>``.  The
matrix leaves out ``validate`` and ``compare --method semiclassical``,
whose last printed digits depend on the LAPACK build and on numpy's
transcendental functions.

After a deliberate change of output, rewrite the files with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import sys
from pathlib import Path

import pytest

from ptoscillator import cli

GOLDEN = Path(__file__).parent / "golden"

UNIT = ["--mass", "1", "--well-depth", "0.375", "--half-width", "1.5707963267948966", "--hbar", "1"]
WIDE = ["--well-depth", "0.5", "--half-width", "157.07963267948966"]
SHALLOW = ["--well-depth", "0.005", "--half-width", "1.5707963267948966"]

CASES = {
    "spectrum_unit": ["spectrum", *UNIT, "--n-max", "40"],
    "spectrum_box": ["spectrum", "--well-depth", "0", "--half-width", "1", "--n-max", "6"],
    "spectrum_wide": ["spectrum", *WIDE, "--n-max", "12"],
    "sweep_half_width": [
        "sweep", "--well-depth", "0.5", "--sweep-var", "half-width",
        "--from", "1.5707963267948966", "--to", "157.07963267948966", "--steps", "12",
    ],
    "sweep_well_depth_box": [
        "sweep", "--half-width", "1.5707963267948966", "--sweep-var", "well-depth",
        "--from", "0", "--to", "2", "--steps", "5", "--n-max", "3",
    ],
    "compare_fp_limit": ["compare", *SHALLOW, "--method", "fp-limit", "--n-max", "6"],
    "compare_ho_limit": ["compare", *WIDE, "--method", "ho-limit", "--n-max", "6"],
    "compare_perturbation": ["compare", *WIDE, "--method", "perturbation", "--n-max", "6"],
    "spectrum_config": ["spectrum", "--config", str(GOLDEN / "unit.cfg"), "--n-max", "4"],
}

FORMATS = ("csv", "json")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden_bytes(capsys, case, fmt):
    code = cli.main([*CASES[case], "--format", fmt])
    assert code == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / f"{case}.{fmt}").read_bytes()


# a negative zero depth is the box: lambda +0.0, eta +inf, FP-dominated
def test_negative_zero_depth_prints_the_box(capsys):
    argv = ["spectrum", "--well-depth", "-0.0", "--half-width", "1", "--n-max", "6"]
    assert cli.main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "spectrum_box.csv").read_bytes()


if __name__ == "__main__":
    import contextlib
    import io

    for case, argv in sorted(CASES.items()):
        for fmt in FORMATS:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main([*argv, "--format", fmt])
            if code != 0:
                sys.exit(f"{case}.{fmt}: exit {code}")
            (GOLDEN / f"{case}.{fmt}").write_bytes(buffer.getvalue().encode("utf-8"))
