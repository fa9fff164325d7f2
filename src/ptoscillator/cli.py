"""Command-line front end: spectrum tables, parameter sweeps,
approximation comparisons and oracle validation runs.

Each subcommand returns ``(status, meta, columns, rows)``; one writer
renders that as CSV (a header of the column names, one line per row)
or as canonical JSON (``meta`` plus ``rows``, one object per row).  A
``--config`` file is turned into ``--key=value`` tokens and parsed by
the same subparser as the flags, so its values are checked exactly like
flags; keys that only other subcommands take are ignored, and flags
given on the command line win.

Exit status: 0 success, 2 usage error (including an unwritable
``--output``), 3 domain or precondition error, 4 validation tolerance
breach.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import limits, oracle, perturbation, semiclassical, spectra
from .errors import InvalidParameterError, PTOscillatorError, ResourceLimitError
from .parameters import PTParameters, derive_scales

__all__ = ["RunConfig", "main"]

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
_PRESSURE_STEP = 1e-4


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs of one subcommand run."""

    command: str
    parameters: PTParameters
    n_max: int = 10
    fmt: str = "csv"
    output: str | None = None
    sweep_var: str | None = None
    sweep_from: float | None = None
    sweep_to: float | None = None
    steps: int | None = None
    method: str | None = None
    grid_n: int = 4000
    levels: int = 5
    tolerance: float = 1e-6


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


# Every option name a config file may use; a key outside this set is a
# usage error, a key that only other subcommands take is ignored.
_CONFIG_KEYS = {
    "mass", "well-depth", "half-width", "hbar", "format", "output", "n-max",
    "sweep-var", "from", "to", "steps", "method", "grid-n", "levels", "tolerance",
}


def _build_parser(allow_abbrev: bool = True) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptoscillator",
        description="Energy and pressure spectra of the confined Poschl-Teller oscillator.",
        allow_abbrev=allow_abbrev,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, allow_abbrev=allow_abbrev)
        p.add_argument("--mass", type=float, default=None, help="particle mass (default 1)")
        p.add_argument(
            "--well-depth", type=float, default=None, help="well intensity V0 (default 0)"
        )
        p.add_argument("--half-width", type=float, default=None, help="confinement half-width L")
        p.add_argument("--hbar", type=float, default=None, help="quantum of action (default 1)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
        p.add_argument("--output", default=None, help="write the table here instead of stdout")
        p.add_argument("--config", default=None, help="key-value config file; flags win")
        return p

    p_spectrum = add_command("spectrum", "exact energy and pressure table")
    p_spectrum.add_argument("--n-max", type=int, default=None, help="levels 1..n-max (default 10)")

    p_sweep = add_command("sweep", "single-level quantities along a parameter sweep")
    p_sweep.add_argument("--sweep-var", choices=("half-width", "well-depth"), default=None)
    p_sweep.add_argument("--from", dest="sweep_from", type=float, default=None)
    p_sweep.add_argument("--to", dest="sweep_to", type=float, default=None)
    p_sweep.add_argument("--steps", type=int, default=None, help="sweep points (>= 2)")
    p_sweep.add_argument("--n-max", type=int, default=None, help="fixed level n (default 1)")

    p_cmp = add_command("compare", "exact levels vs an approximation")
    p_cmp.add_argument(
        "--method",
        choices=("fp-limit", "ho-limit", "semiclassical", "perturbation"),
        default=None,
    )
    p_cmp.add_argument("--n-max", type=int, default=None, help="levels 1..n-max (default 10)")

    p_val = add_command("validate", "closed forms vs the finite-difference oracle")
    p_val.add_argument("--grid-n", type=int, default=None, help="base interior points (default 4000)")
    p_val.add_argument("--levels", type=int, default=None, help="levels to check (default 5)")
    p_val.add_argument(
        "--tolerance", type=float, default=None, help="relative energy tolerance (default 1e-6)"
    )
    return parser


def _load_config_file(parser: argparse.ArgumentParser, path: str) -> dict[str, str]:
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
        if key not in _CONFIG_KEYS or not value:
            parser.error(f"config file {path!r} line {lineno}: unknown or empty entry {raw!r}")
        values[key] = value
    return values


def _merge_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Fill the options still unset from ``--config``, parsed like flags.

    Each entry becomes one ``--key=value`` token, so a value starting
    with '-' stays a value.  Abbreviations are off for this parse: the
    key ``to`` must not match ``--tolerance`` of ``validate``.
    """
    if not args.config:
        return
    tokens = [f"--{key}={value}" for key, value in _load_config_file(parser, args.config).items()]
    file_args, _ = _build_parser(allow_abbrev=False).parse_known_args([args.command, *tokens])
    for dest, value in vars(file_args).items():
        if value is not None and getattr(args, dest) is None:
            setattr(args, dest, value)


def _build_run_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    _merge_config(parser, args)
    sweep_var = getattr(args, "sweep_var", None)
    needs_half_width = not (args.command == "sweep" and sweep_var == "half-width")
    half_width = args.half_width
    if half_width is None:
        if needs_half_width:
            parser.error("the following arguments are required: --half-width")
        half_width = 1.0  # placeholder, replaced at every sweep point
    params = PTParameters(
        mass=args.mass if args.mass is not None else 1.0,
        well_depth=args.well_depth if args.well_depth is not None else 0.0,
        half_width=half_width,
        hbar=args.hbar if args.hbar is not None else 1.0,
    )
    def pick(name: str, default):
        value = getattr(args, name, None)
        return default if value is None else value

    default_n = 1 if args.command == "sweep" else 10
    return RunConfig(
        command=args.command,
        parameters=params,
        n_max=pick("n_max", default_n),
        fmt=args.fmt or "csv",
        output=args.output,
        sweep_var=sweep_var,
        sweep_from=getattr(args, "sweep_from", None),
        sweep_to=getattr(args, "sweep_to", None),
        steps=getattr(args, "steps", None),
        method=getattr(args, "method", None),
        grid_n=pick("grid_n", 4000),
        levels=pick("levels", 5),
        tolerance=pick("tolerance", 1e-6),
    )


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


def cmd_spectrum(config: RunConfig):
    table = spectra.spectrum_table(config.parameters, config.n_max)
    return EXIT_OK, {"scales": _scales_document(table.scales)}, _SPECTRUM_COLUMNS, table.rows


def cmd_sweep(config: RunConfig):
    if config.sweep_var is None:
        raise InvalidParameterError("sweep requires --sweep-var")
    if config.sweep_from is None or config.sweep_to is None:
        raise InvalidParameterError("sweep requires --from and --to")
    if not (math.isfinite(config.sweep_from) and math.isfinite(config.sweep_to)):
        raise InvalidParameterError("sweep requires finite --from and --to")
    if config.steps is None or config.steps < 2:
        raise InvalidParameterError("sweep requires --steps >= 2")
    if config.steps > spectra.MAX_TABLE_LEVELS:
        raise ResourceLimitError(
            f"--steps {config.steps} exceeds the maximum {spectra.MAX_TABLE_LEVELS}"
        )
    if not config.sweep_from < config.sweep_to:
        raise InvalidParameterError("sweep requires --from < --to")
    field = config.sweep_var.replace("-", "_")
    n = config.n_max
    rows = []
    for value in np.linspace(config.sweep_from, config.sweep_to, config.steps):
        params = replace(config.parameters, **{field: float(value)})
        scales = derive_scales(params)
        level = spectra.levels(params, n, scales)
        s_eff = level.pressure_total * params.half_width / level.energy_total
        rows.append((float(value), scales.lambda_exact, scales.oscillator_quantum,
                     level.energy_total, level.pressure_total, s_eff, scales.n_critical))
    return EXIT_OK, {"sweep_var": config.sweep_var, "n": n}, _SWEEP_COLUMNS, rows


def _approximation_for(method: str, params: PTParameters):
    if method == "fp-limit":
        return limits.fp_limit_expansion(params, order=2).energy
    if method == "ho-limit":
        return limits.ho_limit_expansion(params, order=3).energy
    if method == "semiclassical":
        return lambda n: semiclassical.qc_energy_closed(params, n)
    return lambda n: perturbation.perturbed_energy(params, n).total


def cmd_compare(config: RunConfig):
    if config.method is None:
        raise InvalidParameterError("compare requires --method")
    params = config.parameters
    numeric_column = config.method == "semiclassical"
    approximate = _approximation_for(config.method, params)
    exact_energies = spectra.levels(params, spectra.level_range(config.n_max)).energy_total
    rows = []
    for n, exact in enumerate(exact_energies.tolist(), start=1):
        approx = approximate(n)
        abs_err = abs(exact - approx)
        row = (n, exact, approx, abs_err, abs_err / abs(exact))
        if numeric_column:
            row += (semiclassical.qc_energy_numeric(params, n),)
        rows.append(row)
    columns = _COMPARE_COLUMNS + (("E_qc_numeric",) if numeric_column else ())
    return EXIT_OK, {"method": config.method}, columns, rows


def cmd_validate(config: RunConfig):
    if not (math.isfinite(config.tolerance) and config.tolerance > 0.0):
        raise InvalidParameterError(
            f"--tolerance must be positive and finite, got {config.tolerance!r}"
        )
    params = config.parameters
    grid = oracle.GridSpec(
        interior_points=config.grid_n, richardson_levels=3, level_count=config.levels
    )
    numeric = oracle.solve_eigenvalues(params, grid)
    closed = spectra.levels(params, np.arange(1, config.levels + 1))
    all_ok = True
    rows = []
    for n, closed_energy, closed_pressure in zip(
        closed.n.tolist(), closed.energy_total.tolist(), closed.pressure_total.tolist()
    ):
        numeric_energy = float(numeric.eigenvalues[n - 1])
        energy_err = abs(numeric_energy - closed_energy) / abs(closed_energy)
        numeric_pressure = oracle.numerical_pressure(params, n, relative_step=_PRESSURE_STEP)
        pressure_err = abs(numeric_pressure - closed_pressure) / abs(closed_pressure)
        if energy_err > config.tolerance or pressure_err > _PRESSURE_TOLERANCE:
            all_ok = False
        rows.append((n, closed_energy, numeric_energy, energy_err,
                     closed_pressure, numeric_pressure, pressure_err))
    meta = {
        "passed": all_ok,
        "tolerance_energy": config.tolerance,
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _build_run_config(parser, args)
        status, meta, columns, rows = _COMMANDS[args.command](config)
    except PTOscillatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    text = _render(config.fmt, meta, columns, rows)
    if config.output:
        try:
            Path(config.output).write_text(text, encoding="utf-8", newline="\n")
        except OSError as exc:
            print(f"error: cannot write {config.output!r}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    if status == EXIT_TOLERANCE:
        print("validation tolerance breached", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
