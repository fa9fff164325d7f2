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

from .parameters import PTParameters, check_finite, check_single_level, derive_scales

__all__ = [
    "PerturbedEnergy",
    "perturbed_energy",
]


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
