"""Command-line front end: spectrum tables, parameter sweeps,
approximation comparisons and oracle validation runs.

Each subcommand returns ``(status, meta, columns, rows)``; one writer
renders that as CSV (a header of the column names, one line per row)
or as canonical JSON (``meta`` plus ``rows``, one object per row).

The argument parser is the only option path: each subparser declares
its defaults once, and the subcommands read the parsed namespace.  A
``--config`` file is turned into ``--key=value`` tokens, placed right
after the command word and parsed in one pass together with the flags,
so its values are checked exactly like flags and a flag, parsed later,
wins.  The legal keys are the long options the subparsers declare; keys
that only other subcommands take are ignored.

Exit status: 0 success, 2 usage error (including an unwritable
``--output``), 3 domain or precondition error, 4 validation tolerance
breach.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import limits, oracle, perturbation, semiclassical, spectra
from .errors import InvalidParameterError, PTOscillatorError, ResourceLimitError
from .parameters import PTParameters, derive_scales

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_TOLERANCE = 4

_SPECTRUM_COLUMNS = ("n", "E_fp", "E_ho", "E_total", "P_fp", "P_ho", "P_total", "eta", "regime")
_SWEEP_COLUMNS = ("param_value", "lambda", "hbar_omega", "E_n", "P_n", "s_eff", "n_cr")
_COMPARE_COLUMNS = ("n", "E_exact", "E_approx", "abs_err", "rel_err")
_VALIDATE_COLUMNS = (
    "n", "E_closed", "E_numeric", "rel_err_energy", "P_closed", "P_numeric", "rel_err_pressure"
)

_PRESSURE_TOLERANCE = 1e-8


def _fmt(value: float) -> str:
    """Fixed 15-significant-digit float format; '.' decimal separator."""
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return format(value, ".15g")


def _json_canonical(value) -> str:
    """Canonical JSON: sorted keys, fixed float format, non-finite -> null."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return "null"
        return _fmt(value)
    if isinstance(value, dict):
        items = ",".join(
            f"{json.dumps(key)}:{_json_canonical(value[key])}" for key in sorted(value)
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_canonical(item) for item in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _json_text(document) -> str:
    return _json_canonical(document) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return _fmt(value)


def _render(fmt: str, meta: dict, columns: tuple[str, ...], rows: list) -> str:
    """The one writer: CSV or canonical JSON of a subcommand's table."""
    if fmt == "json":
        return _json_text({**meta, "rows": [dict(zip(columns, row)) for row in rows]})
    lines = [",".join(columns)]
    lines.extend(",".join(_csv_cell(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# option plumbing


@functools.cache  # parse_args leaves the parsers as they are
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="ptoscillator",
        description="Energy and pressure spectra of the confined Poschl-Teller oscillator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--mass", type=float, default=1.0, help="particle mass (default 1)")
        p.add_argument(
            "--well-depth", type=float, default=0.0, help="well intensity V0 (default 0)"
        )
        p.add_argument("--half-width", type=float, help="confinement half-width L")
        p.add_argument("--hbar", type=float, default=1.0, help="quantum of action (default 1)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--output", help="write the table here instead of stdout")
        p.add_argument("--config", help="key-value config file; flags win")
        return p

    p_spectrum = add_command("spectrum", "exact energy and pressure table")
    p_spectrum.add_argument("--n-max", type=int, default=10, help="levels 1..n-max (default 10)")

    p_sweep = add_command("sweep", "single-level quantities along a parameter sweep")
    p_sweep.add_argument("--sweep-var", choices=("half-width", "well-depth"))
    p_sweep.add_argument("--from", dest="sweep_from", type=float)
    p_sweep.add_argument("--to", dest="sweep_to", type=float)
    p_sweep.add_argument("--steps", type=int, help="sweep points (>= 2)")
    p_sweep.add_argument("--n-max", type=int, default=1, help="fixed level n (default 1)")

    p_cmp = add_command("compare", "exact levels vs an approximation")
    p_cmp.add_argument(
        "--method", choices=("fp-limit", "ho-limit", "semiclassical", "perturbation")
    )
    p_cmp.add_argument("--n-max", type=int, default=10, help="levels 1..n-max (default 10)")

    p_val = add_command("validate", "closed forms vs the finite-difference oracle")
    p_val.add_argument(
        "--grid-n", type=int, default=4000, help="base interior points (default 4000)"
    )
    p_val.add_argument("--levels", type=int, default=5, help="levels to check (default 5)")
    p_val.add_argument(
        "--tolerance", type=float, default=1e-6, help="relative energy tolerance (default 1e-6)"
    )
    return parser, sub.choices


def _declared_keys(p: argparse.ArgumentParser) -> set[str]:
    """The long option names ``p`` declares, bar help and config."""
    options = {option for action in p._actions for option in action.option_strings}
    return {option[2:] for option in options if option.startswith("--")} - {"help", "config"}


def _load_config_file(
    parser: argparse.ArgumentParser, path: str, keys: set[str]
) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        parser.error(f"cannot read config file {path!r}: {exc}")
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, value = line.partition("=")
        else:
            key, _, value = line.partition(" ")
        key = key.strip().lstrip("-").replace("_", "-").lower()
        value = value.strip()
        if key not in keys or not value:
            parser.error(f"config file {path!r} line {lineno}: unknown or empty entry {raw!r}")
        values[key] = value
    return values


def _parse(
    parser: argparse.ArgumentParser, commands: dict[str, argparse.ArgumentParser], argv: list[str]
) -> argparse.Namespace:
    """Parse the flags and, with ``--config``, the file's entries with them.

    Each entry this subcommand declares becomes one ``--key=value``
    token, so a value starting with '-' stays a value; the tokens go
    right after the command word, so a flag, parsed later, wins.  A key
    that only other subcommands declare is dropped, one that none
    declares is a usage error.
    """
    args = parser.parse_args(argv)
    if args.config is not None:
        keys = {command: _declared_keys(p) for command, p in commands.items()}
        entries = _load_config_file(parser, args.config, set().union(*keys.values()))
        tokens = [f"--{key}={value}" for key, value in entries.items() if key in keys[args.command]]
        at = argv.index(args.command) + 1
        args = parser.parse_args([*argv[:at], *tokens, *argv[at:]])
    if args.half_width is None and not (args.command == "sweep" and args.sweep_var == "half-width"):
        parser.error("the following arguments are required: --half-width")
    return args


# ---------------------------------------------------------------------------
# subcommands: each returns (status, meta, columns, rows)


def _scales_document(scales) -> dict:
    return {
        "alpha": scales.alpha,
        "T": scales.kinetic_scale,
        "zeta2": scales.zeta_squared,
        "lambda": scales.lambda_exact,
        "hbar_omega": scales.oscillator_quantum,
        "psi": scales.psi_factor,
        "n_cr": scales.n_critical,
    }


def cmd_spectrum(args: argparse.Namespace, params: PTParameters):
    table = spectra.spectrum_table(params, args.n_max)
    return EXIT_OK, {"scales": _scales_document(table.scales)}, _SPECTRUM_COLUMNS, table.rows


def cmd_sweep(args: argparse.Namespace, params: PTParameters):
    if args.sweep_var is None:
        raise InvalidParameterError("sweep requires --sweep-var")
    if args.sweep_from is None or args.sweep_to is None:
        raise InvalidParameterError("sweep requires --from and --to")
    if not (math.isfinite(args.sweep_from) and math.isfinite(args.sweep_to)):
        raise InvalidParameterError("sweep requires finite --from and --to")
    if args.steps is None or args.steps < 2:
        raise InvalidParameterError("sweep requires --steps >= 2")
    if args.steps > spectra.MAX_TABLE_LEVELS:
        raise ResourceLimitError(
            f"--steps {args.steps} exceeds the maximum {spectra.MAX_TABLE_LEVELS}"
        )
    if not args.sweep_from < args.sweep_to:
        raise InvalidParameterError("sweep requires --from < --to")
    field = args.sweep_var.replace("-", "_")
    n = args.n_max
    rows = []
    for value in np.linspace(args.sweep_from, args.sweep_to, args.steps):
        point = replace(params, **{field: float(value)})
        scales = derive_scales(point)
        level = spectra.levels(point, n)
        s_eff = level.pressure_total * point.half_width / level.energy_total
        rows.append((float(value), scales.lambda_exact, scales.oscillator_quantum,
                     level.energy_total, level.pressure_total, s_eff, scales.n_critical))
    return EXIT_OK, {"sweep_var": args.sweep_var, "n": n}, _SWEEP_COLUMNS, rows


def _approximation_for(method: str, params: PTParameters):
    if method == "fp-limit":
        return limits.fp_limit_expansion(params, order=2).energy
    if method == "ho-limit":
        return limits.ho_limit_expansion(params, order=3).energy
    if method == "semiclassical":
        return lambda n: semiclassical.qc_energy_closed(params, n)
    return lambda n: perturbation.perturbed_energy(params, n)


def cmd_compare(args: argparse.Namespace, params: PTParameters):
    if args.method is None:
        raise InvalidParameterError("compare requires --method")
    numeric_column = args.method == "semiclassical"
    approximate = _approximation_for(args.method, params)
    exact_energies = spectra.levels(params, spectra.level_range(args.n_max)).energy_total
    rows = []
    for n, exact in enumerate(exact_energies.tolist(), start=1):
        approx = approximate(n)
        abs_err = abs(exact - approx)
        row = (n, exact, approx, abs_err, abs_err / abs(exact))
        if numeric_column:
            row += (semiclassical.qc_energy_numeric(params, n),)
        rows.append(row)
    columns = _COMPARE_COLUMNS + (("E_qc_numeric",) if numeric_column else ())
    return EXIT_OK, {"method": args.method}, columns, rows


def cmd_validate(args: argparse.Namespace, params: PTParameters):
    if not (math.isfinite(args.tolerance) and args.tolerance > 0.0):
        raise InvalidParameterError(
            f"--tolerance must be positive and finite, got {args.tolerance!r}"
        )
    grid = oracle.GridSpec(
        interior_points=args.grid_n, richardson_levels=3, level_count=args.levels
    )
    numeric = oracle.solve_eigenvalues(params, grid)
    closed = spectra.levels(params, np.arange(1, args.levels + 1))
    all_ok = True
    rows = []
    for n, closed_energy, closed_pressure in zip(
        closed.n.tolist(), closed.energy_total.tolist(), closed.pressure_total.tolist()
    ):
        numeric_energy = float(numeric.eigenvalues[n - 1])
        energy_err = abs(numeric_energy - closed_energy) / abs(closed_energy)
        numeric_pressure = oracle.numerical_pressure(params, n)
        pressure_err = abs(numeric_pressure - closed_pressure) / abs(closed_pressure)
        if energy_err > args.tolerance or pressure_err > _PRESSURE_TOLERANCE:
            all_ok = False
        rows.append((n, closed_energy, numeric_energy, energy_err,
                     closed_pressure, numeric_pressure, pressure_err))
    meta = {
        "passed": all_ok,
        "tolerance_energy": args.tolerance,
        "tolerance_pressure": _PRESSURE_TOLERANCE,
    }
    return EXIT_OK if all_ok else EXIT_TOLERANCE, meta, _VALIDATE_COLUMNS, rows


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "validate": cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    args = _parse(*_build_parser(), sys.argv[1:] if argv is None else list(argv))
    try:
        params = PTParameters(
            mass=args.mass,
            well_depth=args.well_depth,
            # a half-width sweep replaces this placeholder at every point
            half_width=1.0 if args.half_width is None else args.half_width,
            hbar=args.hbar,
        )
        status, meta, columns, rows = _COMMANDS[args.command](args, params)
    except PTOscillatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    text = _render(args.fmt, meta, columns, rows)
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8", newline="\n")
        except OSError as exc:
            print(f"error: cannot write {args.output!r}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    if status == EXIT_TOLERANCE:
        print("validation tolerance breached", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
