"""Exact energy and pressure spectra of the confined well.

The level energies split into a free-particle-in-a-box part and a
harmonic-oscillator part,

    E_n = T n^2 + hbar*omega (n - 1/2),         n = 1, 2, 3, ...

and the level pressures (diagonal matrix elements of -dH/dL, the
Hellmann-Feynman force per unit wall displacement) into

    P_n = (2/L) E_n^FP + (2/L) E_n^HO - (1/L) T psi (n - 1/2).

The ratio eta_n = E_n^FP / E_n^HO = n^2 / (lambda (n - 1/2)) classifies
each level as box-dominated or oscillator-dominated.  :func:`levels`
evaluates all of these at once, for one level or an array of levels.

The arithmetic is written once, in :func:`_closed_forms`, which runs on
a Python float level or on a float64 array of levels; numpy's + - * /
round as Python's do, so both give the same bits.  One level, and each
row of :func:`spectrum_table`, is evaluated on Python floats with the
well's scales derived once, so neither imports numpy; only an array of
levels does.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .parameters import (
    DerivedScales,
    PTParameters,
    check_count,
    check_finite,
    check_level,
    derive_scales,
)

__all__ = [
    "FP_DOMINATED",
    "HO_DOMINATED",
    "CROSSOVER",
    "Levels",
    "SpectrumTable",
    "levels",
    "spectrum_table",
]

FP_DOMINATED = "FP-dominated"
HO_DOMINATED = "HO-dominated"
CROSSOVER = "crossover"

MAX_TABLE_LEVELS = 10**6

# Classification thresholds on eta; the underlying statement is only
# asymptotic (eta << 1 vs eta >> 1), so the cut points are a convention.
_ETA_LOW = 0.5
_ETA_HIGH = 2.0


class Levels(NamedTuple):
    """The spectrum-table columns of one level (plain Python values) or
    of an array of levels (arrays)."""

    n: int
    energy_fp: float
    energy_ho: float
    energy_total: float
    pressure_fp: float
    pressure_ho: float
    pressure_total: float
    regime_ratio: float
    regime_label: str


_new_row = tuple.__new__


@functools.cache
def _label_array():
    """The labels indexed by the number of thresholds eta reaches, as a
    numpy object array, so that an array of levels shares these three
    strings; built on first use."""
    import numpy as np

    return np.array([HO_DOMINATED, CROSSOVER, FP_DOMINATED], dtype=object)


def _closed_forms(s: DerivedScales, inv_l: float, k) -> tuple:
    """E_fp, E_ho, E_total, P_fp, P_ho and P_total of the level ``k``, a
    Python float or a float64 array, of the well with scales ``s`` and
    1 / L = ``inv_l``.  Unchecked: a value may be inf or NaN."""
    kinetic, half = s.kinetic_scale, k - 0.5
    energy_fp = kinetic * k * k
    energy_ho = s.oscillator_quantum * half
    pressure_fp = 2.0 * inv_l * energy_fp
    if inv_l * kinetic < sys.float_info.min:
        # (1/L) T underflows, and would lose bits or all of the term
        wall = inv_l * (kinetic * s.psi_factor * half)
    else:
        wall = inv_l * kinetic * s.psi_factor * half
    pressure_ho = 2.0 * inv_l * energy_ho - wall
    return (energy_fp, energy_ho, energy_fp + energy_ho,
            pressure_fp, pressure_ho, pressure_fp + pressure_ho)


def _level(s: DerivedScales, inv_l: float, n: int) -> Levels:
    """:func:`levels` of one level ``n``, a Python int already checked, in
    Python floats."""
    k = float(n)
    energy_fp, energy_ho, energy, pressure_fp, pressure_ho, pressure = _closed_forms(s, inv_l, k)
    if not (math.isfinite(energy) and math.isfinite(pressure)):
        check_finite("energy", n, energy)
        check_finite("pressure", n, pressure)
    # zero where lambda is (the zero-depth sentinel) or its product underflows
    denominator = s.lambda_exact * (k - 0.5)
    eta = k * k / denominator if denominator else math.inf
    label = HO_DOMINATED if eta < _ETA_LOW else FP_DOMINATED if eta >= _ETA_HIGH else CROSSOVER
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    return _new_row(Levels, (n, energy_fp, energy_ho, energy, pressure_fp, pressure_ho,
                             pressure, eta, label))


def levels(params: PTParameters, n) -> Levels:
    """Closed-form energies, pressures and regime ratios of the levels ``n``.

    The box pressure obeys the homogeneous equation of state P = 2 E / L;
    the oscillator part picks up -T psi (n - 1/2) / L because lambda is
    not homogeneous in L.  Labels: oscillator-dominated for eta below
    0.5, box-dominated at 2 and above (and at the zero-depth sentinel
    eta = inf), crossover in between.  Raises :class:`DomainError` at the
    first level whose energy (named first) or pressure is not finite.
    A single level gives plain Python values, and only an array of
    levels imports numpy.
    """
    if not (type(n) is int and 1 <= n < 2**64):
        n = check_level(n)
        if n.ndim == 0:
            n = n.item()
    s = derive_scales(params)
    inv_l = 1.0 / params.half_width
    if type(n) is int:
        return _level(s, inv_l, n)

    import numpy as np

    k = n.astype(np.float64)  # exact below 2^53; keeps n * n out of int64
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        columns = _closed_forms(s, inv_l, k)
        eta = k * k / (s.lambda_exact * (k - 0.5))  # inf at the zero-depth sentinel
    energy_total, pressure_total = columns[2], columns[5]
    finite = np.isfinite(energy_total) & np.isfinite(pressure_total)
    if not finite.all():
        first = np.argmin(finite)
        check_finite("energy", np.ravel(n)[first], np.ravel(energy_total)[first])
        check_finite("pressure", np.ravel(n)[first], np.ravel(pressure_total)[first])
    label = _label_array()[(eta >= _ETA_LOW).astype(np.intp) + (eta >= _ETA_HIGH)]
    return Levels(n, *columns, eta, label)


@dataclass(frozen=True, slots=True)
class SpectrumTable:
    """Levels n = 1..n_max, one plain-valued :class:`Levels` row each,
    with the scales that made them."""

    scales: DerivedScales
    rows: tuple[Levels, ...]


def spectrum_table(params: PTParameters, n_max: int) -> SpectrumTable:
    """Tabulate levels 1..n_max.  Deterministic; n_max capped at 10^6."""
    check_count("n_max", n_max, 1, MAX_TABLE_LEVELS)
    s = derive_scales(params)
    inv_l = 1.0 / params.half_width
    return SpectrumTable(scales=s, rows=tuple([_level(s, inv_l, n) for n in range(1, n_max + 1)]))
