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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
# Labels indexed by the number of thresholds eta reaches; an object array
# so that table rows share these three strings.
_LABELS = np.array([HO_DOMINATED, CROSSOVER, FP_DOMINATED], dtype=object)


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


def levels(params: PTParameters, n) -> Levels:
    """Closed-form energies, pressures and regime ratios of the levels ``n``.

    The box pressure obeys the homogeneous equation of state P = 2 E / L;
    the oscillator part picks up -T psi (n - 1/2) / L because lambda is
    not homogeneous in L.  Labels: oscillator-dominated for eta below
    0.5, box-dominated at 2 and above (and at the zero-depth sentinel
    eta = inf), crossover in between.  Raises :class:`DomainError` at the
    first level whose energy (named first) or pressure is not finite.
    """
    n = check_level(n)
    s = derive_scales(params)
    k = n.astype(np.float64)  # exact below 2^53; keeps n * n out of int64
    inv_l = 1.0 / params.half_width
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        energy_fp = s.kinetic_scale * k * k
        energy_ho = s.oscillator_quantum * (k - 0.5)
        energy_total = energy_fp + energy_ho
        pressure_fp = 2.0 * inv_l * energy_fp
        pressure_ho = 2.0 * inv_l * energy_ho - inv_l * s.kinetic_scale * s.psi_factor * (k - 0.5)
        pressure_total = pressure_fp + pressure_ho
        eta = k * k / (s.lambda_exact * (k - 0.5))  # inf at the zero-depth sentinel
    finite = np.isfinite(energy_total) & np.isfinite(pressure_total)
    if not finite.all():
        first = np.argmin(finite)
        check_finite("energy", np.ravel(n)[first], np.ravel(energy_total)[first])
        check_finite("pressure", np.ravel(n)[first], np.ravel(pressure_total)[first])
    label = _LABELS[(eta >= _ETA_LOW).astype(np.intp) + (eta >= _ETA_HIGH)]
    columns = (n, energy_fp, energy_ho, energy_total, pressure_fp, pressure_ho,
               pressure_total, eta, label)
    if n.ndim == 0:
        return Levels._make(np.asarray(c).item() for c in columns)
    return Levels._make(columns)


def level_range(n_max: int) -> np.ndarray:
    """Levels 1..n_max of a table; n_max must lie in [1, 10^6]."""
    check_count("n_max", n_max, 1, MAX_TABLE_LEVELS)
    return np.arange(1, n_max + 1)


@dataclass(frozen=True, slots=True)
class SpectrumTable:
    """Levels n = 1..n_max, one plain-valued :class:`Levels` row each,
    with the scales that made them."""

    scales: DerivedScales
    rows: tuple[Levels, ...]


def spectrum_table(params: PTParameters, n_max: int) -> SpectrumTable:
    """Tabulate levels 1..n_max.  Deterministic; n_max capped at 10^6."""
    n = level_range(n_max)
    columns = levels(params, n)
    rows = tuple(map(Levels._make, zip(*(c.tolist() for c in columns))))
    return SpectrumTable(scales=derive_scales(params), rows=rows)
