"""Limiting regimes of the spectrum: the nearly-free particle in a box
(shallow well) and the nearly-harmonic oscillator (deep or wide well).

Both regimes are series expansions of the shape parameter

    lambda = sqrt(1 + x) - 1,          x = 4 V0 / T        (box side)
    lambda = sqrt(1 + lt^2) - 1,       lt = 2 sqrt(V0 / T) (oscillator side)

graded so that order k keeps every term through the k-th power of the
regime's small parameter (x on the box side; alpha, equivalently 1/lt,
on the oscillator side).  Each series is a :class:`LimitExpansion`
of three numbers, lambda, hbar*omega = T lambda and the n^2 coefficient
``box_scale``, whose level energy is box_scale n^2 + hbar*omega (n - 1/2).
The limiting equations of state are P = s E / L with s = 2 (box) and
s = 1 (oscillator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvalidParameterError
from .parameters import PTParameters, check_count, check_finite, check_single_level, derive_scales

__all__ = [
    "LimitExpansion",
    "fp_limit_expansion",
    "ho_limit_expansion",
]


def _regime_scales(params: PTParameters, low: float, high: float, requirement: str) -> tuple:
    """Scales of the well and its V0 / T; raises :class:`DomainError`
    unless low < V0 / T < high, the regime's validity region, whose cut
    points keep the leading neglected term below a few percent."""
    scales = derive_scales(params)
    depth_ratio = params.well_depth / scales.kinetic_scale
    if not low < depth_ratio < high:
        raise DomainError(f"{requirement}, got {depth_ratio!r}")
    return scales, depth_ratio


@dataclass(frozen=True, slots=True)
class LimitExpansion:
    """Truncated series for lambda and hbar*omega in one regime.

    ``lambda_approx`` is the series value of lambda and
    ``oscillator_quantum_approx`` the matching hbar*omega = T lambda.
    ``box_scale`` is the coefficient of n^2 in ``energy(n)``: T, or 0.0
    for the oscillator series at order 1, where the box term T n^2 is
    itself second order in alpha.
    """

    lambda_approx: float
    oscillator_quantum_approx: float
    box_scale: float

    def __post_init__(self) -> None:
        if self.lambda_approx < 0.0:
            raise InvalidParameterError("series value of lambda must be >= 0")

    def energy(self, n: int) -> float:
        """Approximate level energy at this expansion order.

        Raises :class:`DomainError` when the energy is not finite.
        """
        check_single_level(n)
        energy = self.box_scale * n * n + self.oscillator_quantum_approx * (n - 0.5)
        check_finite("approximate energy", n, energy)
        return energy


def fp_limit_expansion(params: PTParameters, order: int) -> LimitExpansion:
    """Shallow-well series of lambda in x = 4 V0 / T.

    order 1: lambda ~ x/2;  order 2: lambda ~ (x/2)(1 - x/4), i.e.
    hbar*omega ~ 2 V0 (1 - V0/T).  Requires V0 / T < 1/4.
    """
    check_count("box-side expansion order", order, 1, 2)
    scales, depth_ratio = _regime_scales(
        params, -math.inf, 0.25, "box limit requires well_depth / kinetic_scale < 0.25"
    )
    x = 4.0 * depth_ratio
    lam = 0.5 * x
    if order >= 2:
        lam *= 1.0 - 0.25 * x
    return LimitExpansion(
        lambda_approx=lam,
        oscillator_quantum_approx=scales.kinetic_scale * lam,
        box_scale=scales.kinetic_scale,
    )


def ho_limit_expansion(params: PTParameters, order: int) -> LimitExpansion:
    """Deep-well series of lambda around lt = 2 sqrt(V0 / T) >> 1.

    order 1: lambda ~ lt;  order 2: lambda ~ lt - 1;  order 3:
    lambda ~ lt - 1 + 1/(2 lt), i.e. hbar*omega ~ hw~ - T + T^2/(2 hw~)
    with hw~ = 2 sqrt(V0 T).  Requires V0 / T > 4.
    """
    check_count("oscillator-side expansion order", order, 1, 3)
    scales, depth_ratio = _regime_scales(
        params, 4.0, math.inf, "oscillator limit requires well_depth / kinetic_scale > 4.0"
    )
    lam_tilde = 2.0 * math.sqrt(depth_ratio)
    lam = lam_tilde
    if order >= 2:
        lam -= 1.0
    if order >= 3:
        lam += 0.5 / lam_tilde
    return LimitExpansion(
        lambda_approx=lam,
        oscillator_quantum_approx=scales.kinetic_scale * lam,
        box_scale=scales.kinetic_scale if order >= 2 else 0.0,
    )
