"""Golden stdout: exact bytes and exit codes of a fixed matrix of CLI runs.

Each case's stdout is stored in ``tests/golden/<case>.<format>``.  The
matrix leaves out ``validate``, whose last printed digits depend on the
LAPACK build.  The semiclassical comparison's numeric column depends on
numpy's transcendental functions; on the unit well it is taken where the
quadrature's root agrees with the closed form to every printed digit.

The CLI run as a program, ``python -m ptoscillator.cli``, switches the
cyclic collector off and freezes what is left before exit; it must print
the same bytes and exit with the same status as ``cli.main`` called in
process.

After a deliberate change of output, rewrite the files with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ptoscillator import cli

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

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
    "compare_semiclassical": ["compare", *UNIT, "--method", "semiclassical", "--n-max", "6"],
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


def run_script(argv: list[str], cwd: Path | None = None) -> subprocess.CompletedProcess:
    """``python -m ptoscillator.cli argv`` with a leaked RuntimeWarning fatal."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "error::RuntimeWarning"}
    return subprocess.run(
        [sys.executable, "-m", "ptoscillator.cli", *argv],
        env=env, cwd=cwd, capture_output=True, timeout=120,
    )


class TestScript:
    @pytest.mark.parametrize("case, fmt", [("spectrum_unit", "csv"), ("compare_fp_limit", "json")])
    def test_stdout_matches_golden_bytes(self, case, fmt):
        done = run_script([*CASES[case], "--format", fmt])
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == (GOLDEN / f"{case}.{fmt}").read_bytes()

    def test_output_file_is_written_in_full(self, capsys, tmp_path):
        done = run_script([*CASES["spectrum_unit"], "--output", str(tmp_path / "unit.csv")])
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        assert (tmp_path / "unit.csv").read_bytes() == (GOLDEN / "spectrum_unit.csv").read_bytes()
        # a table of 20000 levels, 3.7 MB of JSON, is written to its last byte
        argv = [*CASES["spectrum_unit"][:-1], "20000", "--format", "json"]
        done = run_script([*argv, "--output", str(tmp_path / "large.json")])
        assert done.returncode == 0
        assert cli.main(argv) == 0
        assert (tmp_path / "large.json").read_bytes() == capsys.readouterr().out.encode("utf-8")

    @pytest.mark.parametrize(
        "argv, status",
        [
            (["spectrum", "--n-max", "3"], 2),  # no --half-width
            (["spectrum", "--half-width", "1", "--output", "missing/table.csv"], 2),
            (["spectrum", "--half-width", "1", "--n-max", "0"], 3),
            (["compare", "--well-depth", "50", "--half-width", "1", "--method", "fp-limit"], 3),
            (["validate", "--mass", "1e220", "--half-width", "1e40", "--levels", "2"], 3),
            (["validate", "--well-depth", "0.375", "--half-width", "1.5707963267948966",
              "--grid-n", "64"], 4),
        ],
        ids=["usage", "unwritable-output", "precondition", "wrong-regime", "underflow",
             "tolerance"],
    )
    def test_exit_status_and_streams_match_main(self, capsys, monkeypatch, tmp_path, argv, status):
        done = run_script(argv, cwd=tmp_path)
        monkeypatch.chdir(tmp_path)
        try:
            code = cli.main(argv)
        except SystemExit as exit:
            code = exit.code
        captured = capsys.readouterr()
        assert done.returncode == code == status
        assert done.stdout == captured.out.encode("utf-8")
        assert done.stderr == captured.err.encode("utf-8")


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
