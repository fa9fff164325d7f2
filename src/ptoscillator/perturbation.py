"""Weak-anharmonicity treatment of the well bottom.

Near the origin the potential expands as

    V(x) = V0 [ (alpha x)^2 + (2/3)(alpha x)^4 + (17/45)(alpha x)^6 + ... ],

whose leading term is the harmonic potential (1/2) m w~^2 x^2 with
hbar*w~ = 2 sqrt(V0 T).  Treating the quartic term by first-order
perturbation theory (matrix element of b x^4 in oscillator state k,
counted from 0: (3 b / 2)(hbar / (m w))^2 (k^2 + k + 1/2)) and shifting
to levels counted from 1 gives

    E_n ~ hbar*w~ (n - 1/2) + T (n^2 - n + 1/2),

which restores the exact quadratic term T n^2 and the -T frequency
correction of the wide-well expansion.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, InvalidParameterError
from .parameters import PTParameters, check_finite, check_single_level, derive_scales

__all__ = [
    "TAN_SQUARED_COEFFICIENTS",
    "potential_series_eval",
    "PerturbedEnergy",
    "perturbed_energy",
]

# Taylor coefficients of tan^2(y) = sum c_k y^(2k).
TAN_SQUARED_COEFFICIENTS = (1.0, 2.0 / 3.0, 17.0 / 45.0)


def potential_series_eval(params: PTParameters, x: float, k_max: int) -> float:
    """Evaluate the truncated potential V0 sum_k c_k (alpha x)^(2k).

    At k_max = 1 this is exactly the harmonic potential
    (1/2) m w~^2 x^2 of the wide-well limit.
    """
    if k_max not in (1, 2, 3):
        raise InvalidParameterError(f"series truncation must be 1, 2 or 3, got {k_max!r}")
    y = params.alpha * x
    if abs(y) >= 0.5 * math.pi:
        raise DomainError(f"|alpha x| must be below pi/2, got {abs(y)!r}")
    y2 = y * y
    total = 0.0
    for coeff in reversed(TAN_SQUARED_COEFFICIENTS[:k_max]):
        total = total * y2 + coeff
    return params.well_depth * y2 * total


class PerturbedEnergy(NamedTuple):
    harmonic: float
    quartic: float
    total: float


def perturbed_energy(params: PTParameters, n: int) -> PerturbedEnergy:
    """Harmonic level plus first-order quartic correction, n = 1, 2, ...

    Raises :class:`DomainError` when the total is not finite.
    """
    check_single_level(n)
    scales = derive_scales(params)
    kinetic = scales.kinetic_scale
    omega_quantum = 2.0 * math.sqrt(params.well_depth * kinetic)
    harmonic = omega_quantum * (n - 0.5)
    quartic = kinetic * (n * n - n + 0.5)
    total = harmonic + quartic
    check_finite("energy", n, total)
    return PerturbedEnergy(harmonic=harmonic, quartic=quartic, total=total)
