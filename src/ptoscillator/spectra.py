"""Exact energy and pressure spectra of the confined well.

The level energies split into a free-particle-in-a-box part and a
harmonic-oscillator part,

    E_n = T n^2 + hbar*omega (n - 1/2),         n = 1, 2, 3, ...

and the level pressures (diagonal matrix elements of -dH/dL, the
Hellmann-Feynman force per unit wall displacement) into

    P_n = (2/L) E_n^FP + (2/L) E_n^HO - (1/L) T psi (n - 1/2).

The ratio eta_n = E_n^FP / E_n^HO = n^2 / (lambda (n - 1/2)) classifies
each level as box-dominated or oscillator-dominated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, InvalidParameterError
from .parameters import DerivedScales, PTParameters, check_level, derive_scales

__all__ = [
    "FP_DOMINATED",
    "HO_DOMINATED",
    "CROSSOVER",
    "EnergyLevel",
    "PressureLevel",
    "RegimeRatio",
    "SpectrumRow",
    "SpectrumTable",
    "energy_level",
    "pressure_level",
    "regime_ratio",
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


class EnergyLevel(NamedTuple):
    fp: float
    ho: float
    total: float


class PressureLevel(NamedTuple):
    fp: float
    ho: float
    total: float


class RegimeRatio(NamedTuple):
    eta: float
    label: str


def _check_finite(quantity: str, n: int, total: float) -> None:
    # A NaN or inf in either part shows up in the total.
    if not math.isfinite(total):
        raise DomainError(
            f"{quantity} of level {n} leaves the floating-point range (total {total!r})"
        )


def energy_level(
    params: PTParameters, n: int, scales: DerivedScales | None = None
) -> EnergyLevel:
    """Closed-form level energy split into box and oscillator parts.

    fp = T n^2, ho = T lambda (n - 1/2), total = fp + ho.  Raises
    :class:`DomainError` when the total is not finite.
    """
    check_level(n)
    s = scales if scales is not None else derive_scales(params)
    fp = s.kinetic_scale * n * n
    ho = s.oscillator_quantum * (n - 0.5)
    total = fp + ho
    _check_finite("energy", n, total)
    return EnergyLevel(fp=fp, ho=ho, total=total)


def pressure_level(
    params: PTParameters, n: int, scales: DerivedScales | None = None
) -> PressureLevel:
    """Closed-form level pressure split into box and oscillator parts.

    The box part obeys the homogeneous equation of state P = 2 E / L;
    the oscillator part picks up the extra -T psi (n - 1/2) / L term
    because lambda is not a homogeneous function of L.  Raises
    :class:`DomainError` when the total is not finite.
    """
    check_level(n)
    s = scales if scales is not None else derive_scales(params)
    inv_l = 1.0 / params.half_width
    energy = energy_level(params, n, s)
    fp = 2.0 * inv_l * energy.fp
    ho = 2.0 * inv_l * energy.ho - inv_l * s.kinetic_scale * s.psi_factor * (n - 0.5)
    total = fp + ho
    _check_finite("pressure", n, total)
    return PressureLevel(fp=fp, ho=ho, total=total)


def regime_ratio(
    params: PTParameters, n: int, scales: DerivedScales | None = None
) -> RegimeRatio:
    """Component ratio eta_n = E_n^FP / E_n^HO with a regime label.

    For a zero-depth well the oscillator part vanishes and eta is the
    inf sentinel (box-dominated).  Labels: oscillator-dominated below
    0.5, box-dominated at 2 and above, crossover in between.
    """
    check_level(n)
    s = scales if scales is not None else derive_scales(params)
    if s.lambda_exact == 0.0:
        return RegimeRatio(eta=float("inf"), label=FP_DOMINATED)
    eta = n * n / (s.lambda_exact * (n - 0.5))
    if eta < _ETA_LOW:
        label = HO_DOMINATED
    elif eta >= _ETA_HIGH:
        label = FP_DOMINATED
    else:
        label = CROSSOVER
    return RegimeRatio(eta=eta, label=label)


@dataclass(frozen=True, slots=True)
class SpectrumRow:
    """One spectral level: energies, pressures and regime data."""

    n: int
    energy_fp: float
    energy_ho: float
    energy_total: float
    pressure_fp: float
    pressure_ho: float
    pressure_total: float
    regime_ratio: float
    regime_label: str


@dataclass(frozen=True, slots=True)
class SpectrumTable:
    """Levels n = 1..n_max with the parameters and scales that made them."""

    params: PTParameters
    scales: DerivedScales
    rows: tuple[SpectrumRow, ...]

    def __post_init__(self) -> None:
        energies = [row.energy_total for row in self.rows]
        if any(b <= a for a, b in zip(energies, energies[1:])):
            raise InvalidParameterError("spectrum rows must increase strictly in energy")


def spectrum_table(params: PTParameters, n_max: int) -> SpectrumTable:
    """Tabulate levels 1..n_max.  Deterministic; n_max capped at 10^6."""
    if not isinstance(n_max, int) or isinstance(n_max, bool) or not 1 <= n_max <= MAX_TABLE_LEVELS:
        raise InvalidParameterError(
            f"n_max must be an integer in [1, {MAX_TABLE_LEVELS}], got {n_max!r}"
        )
    scales = derive_scales(params)
    rows = []
    for n in range(1, n_max + 1):
        energy = energy_level(params, n, scales)
        pressure = pressure_level(params, n, scales)
        ratio = regime_ratio(params, n, scales)
        rows.append(
            SpectrumRow(
                n=n,
                energy_fp=energy.fp,
                energy_ho=energy.ho,
                energy_total=energy.total,
                pressure_fp=pressure.fp,
                pressure_ho=pressure.ho,
                pressure_total=pressure.total,
                regime_ratio=ratio.eta,
                regime_label=ratio.label,
            )
        )
    return SpectrumTable(params=params, scales=scales, rows=tuple(rows))
