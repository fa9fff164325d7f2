"""Correctness checks made apart from the program.

Nothing here imports ``ptoscillator`` or reads a stored copy of its
output.  Reference values come from mpmath at 50 digits, evaluated from
the literal formulas of the model:

* ``E_n = T n^2 + T lambda (n - 1/2)`` with ``lambda = sqrt(1 + 4 V0/T) - 1``
  and ``T = hbar^2 alpha^2 / (2 m)``, ``alpha = pi / (2 L)``;
* ``P_n = -dE_n/dL`` by ``mpmath.diff`` of that energy;
* the Bohr-Sommerfeld levels ``(sqrt(T) (n - 1/2) + sqrt(V0))^2 - V0``;
* the documented series of the limit expansions and of perturbation
  theory.

Large outputs are compared with the references on a seeded sample of
rows; properties (row counts, ordering, sums, regime labels, ``s_eff``)
are checked on every row.  Each check returns a list of problems; an
empty list means the operation's output is correct.
"""

from __future__ import annotations

import json
import math
import random

import mpmath
import numpy as np

EXACT_RTOL = 1e-12  # closed-form values, printed with 15 significant digits
PARTS_RTOL = 1e-13  # E_fp + E_ho = E_total and P_fp + P_ho = P_total
PRESSURE_RTOL = 1e-10  # closed-form pressure against mpmath.diff
ORACLE_ENERGY_RTOL = 1e-6  # acceptance criterion 1
QC_NUMERIC_RTOL = 1e-8  # acceptance criterion 5
VALIDATE_PRESSURE_RTOL = 1e-8  # the CLI's own pressure tolerance
# numerical_pressure(use_eigenvalues=True) differences eigenvalues with a
# 1e-4 relative step; its measured worst error on the acceptance cases
# is 1.3e-3 (wide well, n = 1).
ORACLE_PRESSURE_RTOL = 5e-3
SLOPE_TARGET, SLOPE_TOL = 2.0, 0.2
# The one fault the benchmark keeps (``workloads.KNOWN_FAULT``): the
# oracle is first order in the near-box regime, measured slopes 1.07,
# 1.18 and 1.31.  On an operation marked with it, only a slope in this
# band is that fault; every other problem of the operation is not.
KNOWN_SLOPE_BAND = (1.0, 1.4)
KNOWN = "known fault: "
SAMPLE_ROWS = 8

SPECTRUM_HEADER = ["n", "E_fp", "E_ho", "E_total", "P_fp", "P_ho", "P_total", "eta", "regime"]
SWEEP_HEADER = ["param_value", "lambda", "hbar_omega", "E_n", "P_n", "s_eff", "n_cr"]
COMPARE_HEADER = ["n", "E_exact", "E_approx", "abs_err", "rel_err"]
VALIDATE_HEADER = ["n", "E_closed", "E_numeric", "rel_err_energy", "P_closed", "P_numeric", "rel_err_pressure"]

HO_DOMINATED, FP_DOMINATED, CROSSOVER = "HO-dominated", "FP-dominated", "crossover"


class Reference:
    """mpmath references at 50 digits."""

    def __init__(self) -> None:
        mpmath.mp.dps = 50
        self.half = mpmath.mpf(1) / 2

    def scales(self, params, half_width=None):
        mass, well_depth, length, hbar = (mpmath.mpf(v) for v in params)
        if half_width is not None:
            length = half_width
        alpha = mpmath.pi / (2 * length)
        kinetic = hbar**2 * alpha**2 / (2 * mass)
        lam = mpmath.sqrt(1 + 4 * well_depth / kinetic) - 1
        return kinetic, lam, well_depth

    def energy_parts(self, params, n, half_width=None):
        kinetic, lam, _ = self.scales(params, half_width)
        return kinetic * n * n, kinetic * lam * (n - self.half)

    def energy(self, params, n, half_width=None):
        fp, ho = self.energy_parts(params, n, half_width)
        return fp + ho

    def pressure(self, params, n):
        return -mpmath.diff(lambda length: self.energy(params, n, length), mpmath.mpf(params[2]))

    def eta(self, params, n):
        _, lam, _ = self.scales(params)
        return mpmath.inf if lam == 0 else mpmath.mpf(n * n) / (lam * (n - self.half))

    def qc_energy(self, params, n):
        kinetic, _, well_depth = self.scales(params)
        root = mpmath.sqrt(kinetic) * (n - self.half) + mpmath.sqrt(well_depth)
        return root * root - well_depth

    def approx_energy(self, method, params, n):
        kinetic, _, well_depth = self.scales(params)
        if method == "semiclassical":
            return self.qc_energy(params, n)
        if method == "perturbation":
            return 2 * mpmath.sqrt(well_depth * kinetic) * (n - self.half) + kinetic * (n * n - n + self.half)
        if method == "fp-limit":  # order 2 in x = 4 V0 / T
            x = 4 * well_depth / kinetic
            lam = x / 2 * (1 - x / 4)
        else:  # ho-limit, order 3 in 1 / lt, lt = 2 sqrt(V0 / T)
            lt = 2 * mpmath.sqrt(well_depth / kinetic)
            lam = lt - 1 + 1 / (2 * lt)
        return kinetic * n * n + kinetic * lam * (n - self.half)


def close(value, reference, rtol) -> bool:
    """|value - reference| <= rtol |reference|, with inf matching inf."""
    if mpmath.isinf(reference) or math.isinf(value):
        return math.isinf(value) and mpmath.isinf(reference)
    return abs(mpmath.mpf(value) - reference) <= rtol * abs(reference)


def _sample(rng: random.Random, count: int) -> list[int]:
    if count <= SAMPLE_ROWS:
        return list(range(count))
    return sorted({0, count - 1, *rng.sample(range(1, count - 1), SAMPLE_ROWS - 2)})


def options(argv: list[str]) -> dict[str, str]:
    """``--key value`` pairs of a CLI argument list."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2) if argv[i].startswith("--")}


def cli_params(opts: dict[str, str]):
    return (
        float(opts.get("mass", 1.0)),
        float(opts.get("well-depth", 0.0)),
        float(opts.get("half-width", 1.0)),
        float(opts.get("hbar", 1.0)),
    )


def _number(cell) -> float:
    """A CSV cell or JSON value as a float; JSON writes non-finite as null."""
    return math.inf if cell is None else float(cell)


class Checker:
    def __init__(self, seed: int) -> None:
        self.ref = Reference()
        self.rng = random.Random(f"check:{seed}")

    # -- spectrum tables -------------------------------------------------

    def spectrum(self, params, n_max: int, cols: dict) -> list[str]:
        problems = []
        n = np.asarray(cols["n"])
        if len(n) != n_max or not np.array_equal(n, np.arange(1, n_max + 1)):
            return [f"rows are not n = 1..{n_max}"]
        e_fp, e_ho, e_total = (np.asarray(cols[k], dtype=float) for k in ("E_fp", "E_ho", "E_total"))
        p_fp, p_ho, p_total = (np.asarray(cols[k], dtype=float) for k in ("P_fp", "P_ho", "P_total"))
        eta = np.asarray(cols["eta"], dtype=float)
        if not np.all(np.isfinite(e_total)) or not np.all(np.isfinite(p_total)):
            problems.append("non-finite energy or pressure")
        if np.any(np.abs(e_fp + e_ho - e_total) > PARTS_RTOL * np.abs(e_total)):
            problems.append("E_fp + E_ho != E_total")
        if np.any(np.abs(p_fp + p_ho - p_total) > PARTS_RTOL * np.abs(p_total)):
            problems.append("P_fp + P_ho != P_total")
        if np.any(np.diff(e_total) <= 0.0):
            problems.append("energies do not increase strictly")
        expected = np.where(eta < 0.5, HO_DOMINATED, np.where(eta >= 2.0, FP_DOMINATED, CROSSOVER))
        if list(expected) != list(cols["regime"]):
            problems.append("regime labels disagree with eta")
        for i in _sample(self.rng, n_max):
            level = i + 1
            fp, ho = self.ref.energy_parts(params, level)
            checks = (
                ("E_fp", e_fp[i], fp, EXACT_RTOL),
                ("E_total", e_total[i], fp + ho, EXACT_RTOL),
                ("P_total", p_total[i], self.ref.pressure(params, level), PRESSURE_RTOL),
                ("eta", eta[i], self.ref.eta(params, level), EXACT_RTOL),
            )
            problems += [f"{name} of n={level}" for name, got, want, rtol in checks if not close(got, want, rtol)]
        return problems

    def spectrum_table(self, op, parts) -> list[str]:
        names = ("n", "E_fp", "E_ho", "E_total", "P_fp", "P_ho", "P_total", "eta", "regime")
        fields = (
            "n", "energy_fp", "energy_ho", "energy_total", "pressure_fp", "pressure_ho",
            "pressure_total", "regime_ratio", "regime_label",
        )
        cols = {name: parts[field] for name, field in zip(names, fields)}
        return self.spectrum(op["params"], op["n_max"], cols)

    # -- CLI output ------------------------------------------------------

    def cli(self, op, parts) -> list[str]:
        argv = op["argv"]
        if parts["code"] != 0:
            return [f"exit status {parts['code']}"]
        text = parts["text"]
        command, opts = argv[0], options(argv)
        try:
            if opts["format"] == "json":
                if not text.endswith("\n"):
                    return ["JSON output does not end with a newline"]
                document = json.loads(text)
                rows = document["rows"]
                header = list(rows[0]) if rows else []
                table = [[row[key] for key in header] for row in rows]
            else:
                lines = text.split("\n")
                if lines[-1] != "":
                    return ["CSV output does not end with a newline"]
                header = lines[0].split(",")
                table = [line.split(",") for line in lines[1:-1]]
                if any(len(row) != len(header) for row in table):
                    return ["CSV rows differ in width from the header"]
                document = None
        except (ValueError, KeyError, IndexError) as exc:
            return [f"unparseable {opts['format']} output: {exc}"]
        handler = getattr(self, f"_cli_{command}")
        return handler(opts, header, table, document)

    def _columns(self, header, table, wanted, sort_keys):
        expected = sorted(wanted) if sort_keys else wanted
        if header != expected:
            raise ValueError(f"header {header} != {expected}")
        return {name: [row[header.index(name)] for row in table] for name in wanted}

    def _cli_spectrum(self, opts, header, table, document) -> list[str]:
        json_out = document is not None
        try:
            raw = self._columns(header, table, SPECTRUM_HEADER, json_out)
        except ValueError as exc:
            return [str(exc)]
        cols = {k: [_number(v) for v in raw[k]] for k in SPECTRUM_HEADER if k not in ("n", "regime")}
        cols["n"] = [int(v) for v in raw["n"]]
        cols["regime"] = raw["regime"]
        params = cli_params(opts)
        problems = self.spectrum(params, int(opts["n-max"]), cols)
        if json_out:
            kinetic, lam, _ = self.ref.scales(params)
            scales = document["scales"]
            if not (close(scales["T"], kinetic, EXACT_RTOL) and close(scales["lambda"], lam, EXACT_RTOL)):
                problems.append("scales T or lambda")
        return problems

    def _cli_sweep(self, opts, header, table, document) -> list[str]:
        try:
            raw = self._columns(header, table, SWEEP_HEADER, document is not None)
        except ValueError as exc:
            return [str(exc)]
        cols = {k: np.array([_number(v) for v in raw[k]]) for k in SWEEP_HEADER}
        steps, n = int(opts["steps"]), int(opts["n-max"])
        grid = np.linspace(float(opts["from"]), float(opts["to"]), steps)
        if len(cols["param_value"]) != steps:
            return [f"{len(cols['param_value'])} sweep points, expected {steps}"]
        problems = []
        if np.any(np.abs(cols["param_value"] - grid) > PARTS_RTOL * np.abs(grid)):
            problems.append("sweep points are not the linspace grid")
        s_eff, lam = cols["s_eff"], cols["lambda"]
        base = cli_params(opts)
        length = cols["param_value"] if opts["sweep-var"] == "half-width" else base[2]
        if np.any((s_eff < 1.0 - 1e-12) | (s_eff > 2.0 + 1e-12)):
            problems.append("s_eff outside [1, 2]")
        if np.any(np.abs(cols["P_n"] * length / cols["E_n"] - s_eff) > EXACT_RTOL * s_eff):
            problems.append("s_eff != P_n L / E_n")
        with np.errstate(invalid="ignore"):
            wrong_n_cr = np.where(lam == 0.0, ~np.isinf(cols["n_cr"]), np.abs(cols["n_cr"] * lam - 1.0) > EXACT_RTOL)
        if np.any(wrong_n_cr):
            problems.append("n_cr != 1 / lambda")
        if np.any(np.diff(lam) < 0.0):
            problems.append("lambda decreases along the sweep")
        for i in _sample(self.rng, steps):
            value = cols["param_value"][i]
            params = (base[0], value, base[2], base[3]) if opts["sweep-var"] == "well-depth" else (
                base[0], base[1], value, base[3])
            kinetic, lam, _ = self.ref.scales(params)
            energy = self.ref.energy(params, n)
            pressure = self.ref.pressure(params, n)
            n_cr = mpmath.inf if lam == 0 else 1 / lam
            checks = (
                ("lambda", cols["lambda"][i], lam),
                ("hbar_omega", cols["hbar_omega"][i], kinetic * lam),
                ("E_n", cols["E_n"][i], energy),
                ("n_cr", cols["n_cr"][i], n_cr),
                ("s_eff", s_eff[i], pressure * params[2] / energy),
            )
            problems += [f"{name} at point {i}" for name, got, want in checks if not close(got, want, EXACT_RTOL)]
            if not close(cols["P_n"][i], pressure, PRESSURE_RTOL):
                problems.append(f"P_n at point {i}")
        return problems

    def _cli_compare(self, opts, header, table, document) -> list[str]:
        method = opts["method"]
        wanted = COMPARE_HEADER + (["E_qc_numeric"] if method == "semiclassical" else [])
        try:
            raw = self._columns(header, table, wanted, document is not None)
        except ValueError as exc:
            return [str(exc)]
        params, n_max = cli_params(opts), int(opts["n-max"])
        if [int(v) for v in raw["n"]] != list(range(1, n_max + 1)):
            return [f"rows are not n = 1..{n_max}"]
        problems = []
        for i in range(n_max):
            level = i + 1
            exact, approx = float(raw["E_exact"][i]), float(raw["E_approx"][i])
            abs_err, rel_err = float(raw["abs_err"][i]), float(raw["rel_err"][i])
            if not close(exact, self.ref.energy(params, level), EXACT_RTOL):
                problems.append(f"E_exact of n={level}")
            if not close(approx, self.ref.approx_energy(method, params, level), EXACT_RTOL):
                problems.append(f"E_approx of n={level}")
            if abs(abs_err - abs(exact - approx)) > PARTS_RTOL * abs(exact) or not close(
                rel_err, mpmath.mpf(abs_err) / abs(exact), EXACT_RTOL
            ):
                problems.append(f"abs_err or rel_err of n={level}")
            if method == "semiclassical" and not close(
                float(raw["E_qc_numeric"][i]), self.ref.qc_energy(params, level), QC_NUMERIC_RTOL
            ):
                problems.append(f"E_qc_numeric of n={level}")
        return problems

    def _cli_validate(self, opts, header, table, document) -> list[str]:
        try:
            raw = self._columns(header, table, VALIDATE_HEADER, document is not None)
        except ValueError as exc:
            return [str(exc)]
        levels = int(opts.get("levels", 5))
        if [int(v) for v in raw["n"]] != list(range(1, levels + 1)):
            return [f"rows are not n = 1..{levels}"]
        problems = [] if document is None or document["passed"] is True else ["passed is not true"]
        params = cli_params(opts)
        for i in range(levels):
            level = i + 1
            energy, pressure = self.ref.energy(params, level), self.ref.pressure(params, level)
            checks = (
                ("E_closed", raw["E_closed"][i], energy, EXACT_RTOL),
                ("E_numeric", raw["E_numeric"][i], energy, ORACLE_ENERGY_RTOL),
                ("P_closed", raw["P_closed"][i], pressure, PRESSURE_RTOL),
                ("P_numeric", raw["P_numeric"][i], pressure, VALIDATE_PRESSURE_RTOL),
            )
            problems += [f"{name} of n={level}" for name, got, want, rtol in checks if not close(float(got), want, rtol)]
            for err, numeric, closed in (
                ("rel_err_energy", "E_numeric", "E_closed"),
                ("rel_err_pressure", "P_numeric", "P_closed"),
            ):
                a, b = float(raw[numeric][i]), float(raw[closed][i])
                want = abs(a - b) / abs(b)
                if abs(float(raw[err][i]) - want) > 1e-6 * want + 2e-14:  # 15-digit rounding
                    problems.append(f"{err} of n={level}")
        return problems

    # -- oracle and semiclassical library calls --------------------------

    def solve_eigenvalues(self, op, parts) -> list[str]:
        values = parts["eigenvalues"]
        count = op["grid"][2]
        if len(values) != count:
            return [f"{len(values)} eigenvalues, expected {count}"]
        if any(b <= a for a, b in zip(values, values[1:])):
            return ["eigenvalues do not increase strictly"]
        return [
            f"eigenvalue {i + 1}"
            for i, value in enumerate(values)
            if not close(value, self.ref.energy(op["params"], i + 1), ORACLE_ENERGY_RTOL)
        ]

    def numerical_pressure(self, op, parts) -> list[str]:
        want = self.ref.pressure(op["params"], op["n"])
        return [] if close(parts["value"], want, ORACLE_PRESSURE_RTOL) else [f"pressure of n={op['n']}"]

    def qc_energy_numeric(self, op, parts) -> list[str]:
        want = self.ref.qc_energy(op["params"], op["n"])
        return [] if close(parts["value"], want, QC_NUMERIC_RTOL) else [f"semiclassical level n={op['n']}"]

    def convergence_study(self, op, parts) -> list[str]:
        slopes, errors = parts["slopes"], np.array(parts["errors"])
        if len(slopes) != op["level_count"] or errors.shape != (len(op["grid_sizes"]), op["level_count"]):
            return ["slopes or error matrix of the wrong shape"]
        if not np.all(errors > 0.0):
            return ["non-positive entry in the error matrix"]
        known = bool(op.get("known_fault"))
        return [
            f"{KNOWN if known and KNOWN_SLOPE_BAND[0] <= slope <= KNOWN_SLOPE_BAND[1] else ''}"
            f"slope {slope:.3f} of level {i + 1} is not {SLOPE_TARGET} +- {SLOPE_TOL}"
            for i, slope in enumerate(slopes)
            if abs(slope - SLOPE_TARGET) > SLOPE_TOL
        ]

    def check(self, op, parts) -> list[str]:
        return getattr(self, op["kind"])(op, parts)


def unexplained(problems: list[str]) -> list[str]:
    """The problems that the known fault does not account for."""
    return [p for p in problems if not p.startswith(KNOWN)]
