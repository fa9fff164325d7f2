import csv
import io
import json
import math
from dataclasses import replace

import pytest

from ptoscillator import (
    GridSpec,
    PTParameters,
    cli,
    limits,
    numerical_pressure,
    oracle,
    perturbation,
    semiclassical,
    spectra,
)

UNIT_WELL_FLAGS = [
    "--mass", "1",
    "--well-depth", "0.375",
    "--half-width", "1.5707963267948966",
    "--hbar", "1",
]


def config_options():
    """Every long option a subcommand declares, bar help and config."""
    _, commands = cli._build_parser()
    return [
        pytest.param(command, action, option, id=f"{command}{option}")
        for command, parser in commands.items()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option not in ("--help", "--config")
    ]


# (well depth, half-width, approximation of the well's level n) for each
# compare method, on a well inside the method's regime
METHOD_WELLS = {
    "fp-limit": (
        0.005, math.pi / 2, lambda params: limits.fp_limit_expansion(params, order=2).energy
    ),
    "ho-limit": (
        0.5, 50 * math.pi, lambda params: limits.ho_limit_expansion(params, order=3).energy
    ),
    "semiclassical": (
        0.375, math.pi / 2, lambda params: lambda n: semiclassical.qc_energy_closed(params, n)
    ),
    "perturbation": (
        0.5, 50 * math.pi, lambda params: lambda n: perturbation.perturbed_energy(params, n)
    ),
}


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestSpectrum:
    def test_unit_well_table(self, capsys):
        code, out = run_cli(capsys, ["spectrum", *UNIT_WELL_FLAGS, "--n-max", "3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,E_fp,E_ho,E_total,P_fp,P_ho,P_total,eta,regime"
        assert len(lines) == 4
        totals = [float(line.split(",")[3]) for line in lines[1:]]
        assert totals == [0.75, 2.75, 5.75]
        assert out.endswith("\n")
        assert "\r" not in out

    def test_pressure_column(self, capsys):
        code, out = run_cli(capsys, ["spectrum", *UNIT_WELL_FLAGS, "--n-max", "1"])
        row = out.splitlines()[1].split(",")
        assert float(row[6]) == pytest.approx(2.25 / math.pi, rel=1e-14)
        assert row[8] == "FP-dominated"

    def test_box_has_zero_oscillator_column(self, capsys):
        code, out = run_cli(
            capsys, ["spectrum", "--well-depth", "0", "--half-width", "1", "--n-max", "4"]
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            cells = line.split(",")
            assert cells[2] == "0"  # E_ho
            assert cells[7] == "inf"  # eta sentinel

    def test_missing_half_width_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["spectrum", "--well-depth", "0.375"])
        assert excinfo.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_bad_n_max_is_precondition_error(self, capsys):
        code, _ = run_cli(capsys, ["spectrum", *UNIT_WELL_FLAGS, "--n-max", "0"])
        assert code == 3

    def test_json_document(self, capsys):
        code, out = run_cli(
            capsys, ["spectrum", *UNIT_WELL_FLAGS, "--n-max", "2", "--format", "json"]
        )
        assert code == 0
        document = json.loads(out)
        assert document["scales"]["lambda"] == 1.0
        assert document["scales"]["T"] == 0.5
        assert document["scales"]["n_cr"] == 1.0
        assert [row["E_total"] for row in document["rows"]] == [0.75, 2.75]

    def test_json_round_trip_is_byte_identical(self, capsys):
        code, out = run_cli(
            capsys, ["spectrum", *UNIT_WELL_FLAGS, "--n-max", "5", "--format", "json"]
        )
        reparsed = json.loads(out)
        assert cli._json_text(reparsed) == out

    def test_json_round_trip_with_sentinels(self, capsys):
        # box case: zeta2, n_cr and eta are non-finite and serialize as null
        code, out = run_cli(
            capsys,
            ["spectrum", "--well-depth", "0", "--half-width", "1", "--format", "json"],
        )
        document = json.loads(out)
        assert document["scales"]["n_cr"] is None
        assert cli._json_text(document) == out

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "table.csv"
        code = cli.main(["spectrum", *UNIT_WELL_FLAGS, "--output", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: cannot write ")
        assert "Traceback" not in captured.err

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        code, out = run_cli(capsys, ["spectrum", *UNIT_WELL_FLAGS, "--n-max", "3"])
        target = tmp_path / "table.csv"
        code2 = cli.main(["spectrum", *UNIT_WELL_FLAGS, "--n-max", "3", "--output", str(target)])
        capsys.readouterr()
        assert code2 == 0
        assert target.read_bytes().decode() == out


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", *UNIT_WELL_FLAGS, "--n-max", "8"],
            ["spectrum", *UNIT_WELL_FLAGS, "--n-max", "8", "--format", "json"],
            ["sweep", *UNIT_WELL_FLAGS, "--sweep-var", "well-depth",
             "--from", "0", "--to", "1", "--steps", "7"],
            ["compare", *UNIT_WELL_FLAGS, "--method", "semiclassical", "--n-max", "4"],
            ["validate", *UNIT_WELL_FLAGS, "--grid-n", "500", "--levels", "3",
             "--tolerance", "1e-4"],
        ],
    )
    def test_repeated_runs_identical(self, capsys, argv):
        first_code, first = run_cli(capsys, argv)
        second_code, second = run_cli(capsys, argv)
        assert first_code == second_code
        assert first == second

    # The parser is built once per process and parse_args leaves it as it
    # was, so a run of calls, a usage error among them, gives the stdout
    # bytes and exit codes that each call gets from a parser of its own.
    def test_calls_share_one_parser(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("half-width = 1\nwell-depth = 0.375\nn-max = 9\n", encoding="utf-8")
        calls = [
            ["spectrum", *UNIT_WELL_FLAGS, "--n-max", "3"],
            ["spectrum", "--config", str(config), "--format", "json"],
            ["validate", *UNIT_WELL_FLAGS, "--grid-n", "200", "--levels", "2", "--tolerance", "1"],
            ["spectrum", "--n-max", "3"],  # no --half-width
            ["spectrum", *UNIT_WELL_FLAGS, "--n-max", "3"],
        ]

        def run(argv):
            try:
                code = cli.main(argv)
            except SystemExit as exit:
                code = exit.code
            return code, capsys.readouterr().out

        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(run(argv))
        assert [code for code, _ in fresh] == [0, 0, 0, 2, 0]
        assert cli._build_parser() is cli._build_parser()
        assert [run(argv) for argv in calls + calls] == fresh + fresh


class TestSweep:
    def test_width_sweep_tracks_equation_of_state(self, capsys):
        code, out = run_cli(
            capsys,
            [
                "sweep", "--well-depth", "0.5", "--sweep-var", "half-width",
                "--from", "1.5707963267948966", "--to", "157.07963267948966",
                "--steps", "12", "--n-max", "1",
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "param_value,lambda,hbar_omega,E_n,P_n,s_eff,n_cr"
        s_eff = [float(line.split(",")[5]) for line in lines[1:]]
        assert all(b < a for a, b in zip(s_eff, s_eff[1:]))
        assert s_eff[0] < 2.0
        assert s_eff[-1] == pytest.approx(1.0, abs=1e-2)

    def test_depth_sweep_grows_lambda(self, capsys):
        code, out = run_cli(
            capsys,
            [
                "sweep", "--half-width", "1.5707963267948966", "--sweep-var", "well-depth",
                "--from", "0", "--to", "1", "--steps", "5", "--n-max", "1",
            ],
        )
        assert code == 0
        lam = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert lam[0] == 0.0
        assert all(b > a for a, b in zip(lam, lam[1:]))

    def test_single_step_rejected(self, capsys):
        code, _ = run_cli(
            capsys,
            ["sweep", "--half-width", "1", "--sweep-var", "well-depth",
             "--from", "0", "--to", "1", "--steps", "1"],
        )
        assert code == 3

    # the missing-option cases run the sweep guards that precede the finiteness check
    @pytest.mark.parametrize(
        "options,requirement",
        [
            pytest.param(["--sweep-var", "well-depth", "--from=-inf", "--to=1"],
                         "finite --from and --to", id="endpoints0"),
            pytest.param(["--sweep-var", "well-depth", "--from=0", "--to=inf"],
                         "finite --from and --to", id="endpoints1"),
            pytest.param(["--sweep-var", "well-depth", "--from=0"], "--from and --to",
                         id="missing-to"),
            pytest.param(["--from=0", "--to=1"], "--sweep-var", id="missing-sweep-var"),
        ],
    )
    def test_non_finite_endpoint_rejected(self, capsys, options, requirement):
        code = cli.main(["sweep", "--half-width", "1", *options, "--steps", "3"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == f"error: sweep requires {requirement}\n"

    def test_too_many_steps_is_resource_error(self, capsys):
        # rejected before any sweep point is allocated
        code, _ = run_cli(
            capsys,
            ["sweep", "--half-width", "1", "--sweep-var", "well-depth",
             "--from", "0", "--to", "1", "--steps", "1000001"],
        )
        assert code == 3

    def test_reversed_range_rejected(self, capsys):
        code, _ = run_cli(
            capsys,
            ["sweep", "--half-width", "1", "--sweep-var", "well-depth",
             "--from", "2", "--to", "1", "--steps", "4"],
        )
        assert code == 3


class TestFloatRangeGuard:
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--half-width", "1e200"],
            ["spectrum", "--half-width", "1e-200"],
            ["spectrum", "--half-width", "1", "--well-depth", "1e308"],
            ["sweep", "--sweep-var", "half-width", "--from", "1e200", "--to", "2e200",
             "--steps", "3"],
            ["sweep", "--sweep-var", "half-width", "--from", "1e-200", "--to", "2e-200",
             "--steps", "3"],
            ["sweep", "--well-depth", "1e308", "--sweep-var", "half-width", "--from", "1",
             "--to", "2", "--steps", "3"],
            ["spectrum", "--half-width", "1e-150", "--well-depth", "1e300", "--n-max", "3"],
            ["sweep", "--half-width", "1e-150", "--sweep-var", "well-depth", "--from", "0",
             "--to", "1e300", "--steps", "3"],
            ["spectrum", "--half-width", "1e-150", "--n-max", "200000"],
            ["compare", "--half-width", "1e-150", "--well-depth", "1e300",
             "--method", "perturbation", "--n-max", "2"],
            ["compare", "--half-width", "1e-5", "--well-depth", "1e300",
             "--method", "perturbation", "--n-max", "2"],
            ["validate", "--mass", "1e-300", "--well-depth", "1", "--half-width", "1e-5"],
            # the oracle's own hbar^2 / (2 m h^2) leaves the float range
            ["validate", "--half-width", "1e200"],
            ["validate", "--half-width", "1e-200"],
            ["validate", "--hbar", "1e200", "--half-width", "1"],
            ["validate", "--mass", "1e308", "--half-width", "1"],
            # hbar^2 alpha^2 is subnormal, which put T off by 3.5 %
            ["spectrum", "--mass", "5.396606398857714e-256", "--well-depth", "0",
             "--half-width", "3.5950262769302127e+161", "--hbar", "2.830508829971479e+119",
             "--n-max", "1"],
        ],
    )
    def test_overflowing_scales_are_domain_errors(self, capsys, argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert "nan" not in captured.out.lower()


class TestCompare:
    def test_semiclassical_errors_decrease(self, capsys):
        code, out = run_cli(
            capsys, ["compare", *UNIT_WELL_FLAGS, "--method", "semiclassical", "--n-max", "5"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,E_exact,E_approx,abs_err,rel_err,E_qc_numeric"
        rel = [float(line.split(",")[4]) for line in lines[1:]]
        assert all(b < a for a, b in zip(rel, rel[1:]))
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(float(first[5]), rel=1e-8)

    # heavy- and light-mass wells with finite action and levels, where a
    # slope dI/dE summed as m / p would overflow or underflow
    @pytest.mark.parametrize(
        "flags",
        [
            ["--mass", "3.417985501781692e195", "--well-depth", "1.79e-271",
             "--half-width", "3.37e102", "--hbar", "8.76e66"],
            ["--mass", "2.8735985554059562e-291", "--well-depth", "3.977511803505796e218",
             "--half-width", "8.199860413199871e-81", "--hbar", "1.2603851694181118e-123"],
        ],
        ids=["heavy", "light"],
    )
    def test_semiclassical_at_extreme_masses(self, capsys, flags):
        code, out = run_cli(capsys, ["compare", *flags, "--method", "semiclassical", "--n-max", "3"])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 3
        for row in rows:
            assert float(row[2]) == pytest.approx(float(row[5]), rel=1e-8)

    def test_wrong_regime_is_domain_error(self, capsys):
        code, _ = run_cli(
            capsys,
            ["compare", "--well-depth", "0.005", "--half-width", "1.5707963267948966",
             "--method", "ho-limit", "--n-max", "3"],
        )
        assert code == 3

    def test_fp_limit_in_its_regime(self, capsys):
        code, out = run_cli(
            capsys,
            ["compare", "--well-depth", "0.005", "--half-width", "1.5707963267948966",
             "--method", "fp-limit", "--n-max", "3"],
        )
        assert code == 0
        rel = [float(line.split(",")[4]) for line in out.splitlines()[1:]]
        assert all(r < 1e-5 for r in rel)

    def test_perturbation_residual(self, capsys):
        code, out = run_cli(
            capsys,
            ["compare", "--well-depth", "0.5", "--half-width", "157.07963267948966",
             "--method", "perturbation", "--n-max", "1"],
        )
        assert code == 0
        abs_err = float(out.splitlines()[1].split(",")[3])
        assert abs_err == pytest.approx(6.25e-8, rel=1e-3)

    # each method on a well of its regime: every printed cell is the value
    # computed one level at a time in Python floats
    @pytest.mark.parametrize("method", list(METHOD_WELLS))
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cells_are_the_per_level_values(self, capsys, method, fmt):
        depth, half_width, approximation = METHOD_WELLS[method]
        params = PTParameters(1.0, depth, half_width)
        code, out = run_cli(
            capsys,
            ["compare", "--well-depth", repr(depth), "--half-width", repr(half_width),
             "--method", method, "--n-max", "200", "--format", fmt],
        )
        assert code == 0
        approximate = approximation(params)
        expected = []
        for n in range(1, 201):
            exact = spectra.levels(params, n).energy_total
            approx = approximate(n)
            row = [n, exact, approx, abs(exact - approx), abs(exact - approx) / abs(exact)]
            if method == "semiclassical":
                row.append(semiclassical.qc_energy_numeric(params, n))
            expected.append([str(row[0])] + [format(value, ".15g") for value in row[1:]])
        if fmt == "csv":
            assert [line.split(",") for line in out.splitlines()[1:]] == expected
        else:
            document = json.loads(out)
            assert document["method"] == method
            columns = [*cli._COMPARE_COLUMNS, "E_qc_numeric"][: len(expected[0])]
            got = [[row[column] for column in columns] for row in document["rows"]]
            assert got == [[int(row[0])] + [float(cell) for cell in row[1:]] for row in expected]

    def test_method_required(self, capsys):
        code, _ = run_cli(capsys, ["compare", *UNIT_WELL_FLAGS])
        assert code == 3

    @pytest.mark.parametrize("n_max", ["0", "1000001"])
    def test_out_of_range_n_max_is_precondition_error(self, capsys, n_max):
        code = cli.main(
            ["compare", *UNIT_WELL_FLAGS, "--method", "perturbation", "--n-max", n_max]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: n_max must be an integer in [1, 1000000]")


class TestValidate:
    def test_unit_well_passes(self, capsys):
        code, out = run_cli(capsys, ["validate", *UNIT_WELL_FLAGS, "--levels", "5"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "n,E_closed,E_numeric,rel_err_energy,P_closed,P_numeric,rel_err_pressure"
        )
        assert len(lines) == 6

    def test_box_passes(self, capsys):
        code, _ = run_cli(
            capsys, ["validate", "--well-depth", "0", "--half-width", "1", "--levels", "3"]
        )
        assert code == 0

    def test_near_box_passes(self, capsys):
        code, _ = run_cli(
            capsys, ["validate", "--well-depth", "0.005", "--half-width", "1.5707963267948966"]
        )
        assert code == 0

    # the oracle extrapolates the wall error term h^sqrt(1 + 4 V0 / T) here
    @pytest.mark.parametrize("depth", ["0.02", "0.05"])
    def test_shallow_wells_pass(self, capsys, depth):
        code, _ = run_cli(
            capsys, ["validate", "--well-depth", depth, "--half-width", "1.5707963267948966"]
        )
        assert code == 0

    # A closed form evaluated at mass (1 + 1e-6) is consistent with itself
    # but 1e-6 off.  The pressure column differences the Langer-shifted
    # Bohr-Sommerfeld level, not the closed-form energy, so it sees the fault
    # at every level, even where the energy tolerance admits it.
    def test_pressure_column_is_independent_of_the_closed_form(self, capsys, monkeypatch):
        derive = spectra.derive_scales
        monkeypatch.setattr(
            spectra,
            "derive_scales",
            lambda params: derive(replace(params, mass=params.mass * (1.0 + 1e-6))),
        )
        code, out = run_cli(capsys, ["validate", *UNIT_WELL_FLAGS, "--tolerance", "1"])
        assert code == 4
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5
        assert all(float(row["rel_err_pressure"]) > 1e-8 for row in rows)

    # a NaN error is no pass: a check with > would let it through
    def test_nan_pressure_breaches_tolerance(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "numerical_pressure", lambda params, n: math.nan)
        code, out = run_cli(capsys, ["validate", *UNIT_WELL_FLAGS, "--format", "json"])
        assert code == 4
        document = json.loads(out)
        assert document["passed"] is False
        assert [row["rel_err_pressure"] for row in document["rows"]] == [None] * 5

    def test_coarse_grid_breaches_tolerance(self, capsys):
        code, _ = run_cli(capsys, ["validate", *UNIT_WELL_FLAGS, "--grid-n", "64"])
        assert code == 4

    # passed, the exit status and the stderr line follow from each level's
    # errors against both tolerances, recomputed one level at a time
    @pytest.mark.parametrize("grid_n, status", [(4000, 0), (64, 4)])
    def test_status_follows_the_per_level_errors(self, capsys, unit_well, grid_n, status):
        code = cli.main(["validate", *UNIT_WELL_FLAGS, "--grid-n", str(grid_n), "--format", "json"])
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        grid = GridSpec(interior_points=grid_n, richardson_levels=3, level_count=5)
        eigenvalues = oracle.solve_eigenvalues(unit_well, grid).eigenvalues.tolist()
        passed = True
        for n, row in enumerate(document["rows"], start=1):
            closed = spectra.levels(unit_well, n)
            energy_err = abs(eigenvalues[n - 1] - closed.energy_total) / closed.energy_total
            pressure = numerical_pressure(unit_well, n)
            pressure_err = abs(pressure - closed.pressure_total) / closed.pressure_total
            assert row["rel_err_energy"] == float(format(energy_err, ".15g"))
            assert row["rel_err_pressure"] == float(format(pressure_err, ".15g"))
            passed = passed and energy_err <= 1e-6 and pressure_err <= 1e-8
        assert (document["tolerance_energy"], document["tolerance_pressure"]) == (1e-6, 1e-8)
        assert document["passed"] is passed
        assert code == status == (0 if passed else 4)
        assert ("validation tolerance breached" in captured.err) is not passed

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1e-6"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, tolerance):
        code, out = run_cli(
            capsys,
            ["validate", *UNIT_WELL_FLAGS, "--grid-n", "64", "--levels", "2",
             f"--tolerance={tolerance}"],
        )
        assert code == 3
        assert out == ""

    # ten levels on 64 nodes breach the default tolerance: worst energy
    # error 1.2e-5, where two levels read below 1e-6
    def test_json_reports_status(self, capsys):
        code, out = run_cli(
            capsys,
            ["validate", *UNIT_WELL_FLAGS, "--grid-n", "64", "--levels", "10",
             "--format", "json"],
        )
        assert code == 4
        document = json.loads(out)
        assert document["passed"] is False


class TestConfigFile:
    def test_config_supplies_missing_flags(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# unit well\n"
            "well-depth = 0.375\n"
            "half-width = 1.5707963267948966\n"
            "n-max = 3\n",
            encoding="utf-8",
        )
        code, out = run_cli(capsys, ["spectrum", "--config", str(config)])
        assert code == 0
        assert len(out.splitlines()) == 4
        assert float(out.splitlines()[1].split(",")[3]) == 0.75

    def test_flags_win_over_config(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("half-width = 1\nwell-depth = 0.375\nn-max = 9\n", encoding="utf-8")
        code, out = run_cli(
            capsys, ["spectrum", "--config", str(config), "--n-max", "2"]
        )
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_unknown_key_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("half-width = 1\nwibble = 3\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["spectrum", "--config", str(config)])
        assert excinfo.value.code == 2

    def test_keys_of_other_subcommands_are_ignored(self, capsys, tmp_path):
        # "to" belongs to sweep; it must not abbreviate validate's --tolerance
        config = tmp_path / "run.cfg"
        config.write_text(
            "half-width = 1.5707963267948966\nwell-depth = 0.375\n"
            "method = fp-limit\nsteps = 4\nto = 3\n",
            encoding="utf-8",
        )
        code, out = run_cli(
            capsys, ["validate", "--config", str(config), "--grid-n", "64", "--levels", "10"]
        )
        assert code == 4

    @pytest.mark.parametrize(
        "entry", ["format = xml", "n-max = 3.5", "well-depth = deep"]
    )
    def test_bad_value_is_usage_error(self, tmp_path, entry):
        config = tmp_path / "run.cfg"
        config.write_text(f"half-width = 1\n{entry}\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["spectrum", "--config", str(config)])
        assert excinfo.value.code == 2

    def test_value_may_start_with_a_dash(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        target = tmp_path / "-table.csv"
        config.write_text(f"half-width = 1\noutput = {target}\n", encoding="utf-8")
        code, out = run_cli(capsys, ["spectrum", "--config", str(config), "--n-max", "2"])
        assert code == 0
        assert out == ""
        assert len(target.read_text(encoding="utf-8").splitlines()) == 3

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["spectrum", "--config", str(tmp_path / "absent.cfg")])
        assert excinfo.value.code == 2

    def test_empty_path_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["spectrum", "--half-width", "1", "--n-max", "2", "--config", ""])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot read config file ''" in captured.err

    @pytest.mark.parametrize("command, action, option", config_options())
    def test_every_declared_option_is_a_key(self, tmp_path, command, action, option):
        if action.choices:
            value = action.choices[-1]
        elif action.type is int:
            value = 3
        elif action.type is float:
            value = 0.5
        else:
            value = "table.csv"
        config = tmp_path / "run.cfg"
        config.write_text(f"half-width = 1\n{option[2:]} = {value}\n", encoding="utf-8")
        parser, commands = cli._build_parser()
        args = cli._parse(parser, commands, [command, "--config", str(config)])
        assert getattr(args, action.dest) == value != action.default

    def test_config_sweep_of_half_width_needs_no_flag(self, capsys, tmp_path):
        # the file is merged before the check that --half-width is given
        config = tmp_path / "run.cfg"
        config.write_text(
            "well-depth = 0.5\nsweep-var = half-width\nfrom = 1\nto = 3\nsteps = 4\n",
            encoding="utf-8",
        )
        code, out = run_cli(capsys, ["sweep", "--config", str(config)])
        assert code == 0
        assert len(out.splitlines()) == 5


class TestFloatFormat:
    def test_fifteen_significant_digits(self):
        assert cli._fmt(2.25 / math.pi) == "0.716197243913529"
        assert cli._fmt(0.75) == "0.75"
        assert cli._fmt(float("inf")) == "inf"
        assert cli._fmt(-0.0) == "0"

    def test_format_is_reparse_stable(self):
        for value in (2.25 / math.pi, 5e-5, 199.00249998437519, 9.9501249992187598e-3):
            once = cli._fmt(value)
            assert cli._fmt(float(once)) == once
