"""Limiting regimes of the spectrum: the nearly-free particle in a box
(shallow well) and the nearly-harmonic oscillator (deep or wide well).

Both regimes are series expansions of the shape parameter

    lambda = sqrt(1 + x) - 1,          x = 4 V0 / T        (box side)
    lambda = sqrt(1 + lt^2) - 1,       lt = 2 sqrt(V0 / T) (oscillator side)

graded so that order k keeps every term through the k-th power of the
regime's small parameter (x on the box side; alpha, equivalently 1/lt,
on the oscillator side).  The limiting equations of state are
P = s E / L with s = 2 (box) and s = 1 (oscillator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvalidParameterError
from .parameters import PTParameters, check_count, check_finite, check_single_level, derive_scales

__all__ = [
    "FP_REGIME",
    "HO_REGIME",
    "LimitExpansion",
    "fp_limit_expansion",
    "ho_limit_expansion",
]

FP_REGIME = "FP"
HO_REGIME = "HO"

# Validity region of each regime: an open interval of V0 / T.  The
# underlying statements are only asymptotic; these cut points keep the
# leading neglected term below a few percent.
_REGIME_GUARDS = {
    FP_REGIME: (-math.inf, 0.25, "box limit requires well_depth / kinetic_scale < 0.25"),
    HO_REGIME: (4.0, math.inf, "oscillator limit requires well_depth / kinetic_scale > 4.0"),
}


def _regime_scales(params: PTParameters, regime: str) -> tuple:
    """Scales of the well and its V0 / T; raises :class:`DomainError`
    unless V0 / T lies inside ``regime``'s validity region."""
    low, high, requirement = _REGIME_GUARDS[regime]
    scales = derive_scales(params)
    depth_ratio = params.well_depth / scales.kinetic_scale
    if not low < depth_ratio < high:
        raise DomainError(f"{requirement}, got {depth_ratio!r}")
    return scales, depth_ratio


@dataclass(frozen=True, slots=True)
class LimitExpansion:
    """Truncated series for lambda and hbar*omega in one regime.

    ``order_kept`` counts powers of the regime's small parameter that
    are retained.  ``energy(n)`` evaluates the per-level energy at the
    same consistent order: on the oscillator side the box term T n^2 is
    itself second order in alpha and therefore only enters for
    order_kept >= 2.
    """

    regime: str
    lambda_approx: float
    oscillator_quantum_approx: float
    order_kept: int
    kinetic_scale: float

    def __post_init__(self) -> None:
        if self.lambda_approx < 0.0:
            raise InvalidParameterError("series value of lambda must be >= 0")
        check_count("order_kept", self.order_kept, 1, 3)

    def energy(self, n: int) -> float:
        """Approximate level energy at this expansion order.

        Raises :class:`DomainError` when the energy is not finite.
        """
        check_single_level(n)
        ho_part = self.oscillator_quantum_approx * (n - 0.5)
        if self.regime == HO_REGIME and self.order_kept == 1:
            energy = ho_part
        else:
            energy = self.kinetic_scale * n * n + ho_part
        check_finite("approximate energy", n, energy)
        return energy


def fp_limit_expansion(params: PTParameters, order: int) -> LimitExpansion:
    """Shallow-well series of lambda in x = 4 V0 / T.

    order 1: lambda ~ x/2;  order 2: lambda ~ (x/2)(1 - x/4), i.e.
    hbar*omega ~ 2 V0 (1 - V0/T).  Requires V0 / T < 1/4.
    """
    check_count("box-side expansion order", order, 1, 2)
    scales, depth_ratio = _regime_scales(params, FP_REGIME)
    x = 4.0 * depth_ratio
    lam = 0.5 * x
    if order >= 2:
        lam *= 1.0 - 0.25 * x
    return LimitExpansion(
        regime=FP_REGIME,
        lambda_approx=lam,
        oscillator_quantum_approx=scales.kinetic_scale * lam,
        order_kept=order,
        kinetic_scale=scales.kinetic_scale,
    )


def ho_limit_expansion(params: PTParameters, order: int) -> LimitExpansion:
    """Deep-well series of lambda around lt = 2 sqrt(V0 / T) >> 1.

    order 1: lambda ~ lt;  order 2: lambda ~ lt - 1;  order 3:
    lambda ~ lt - 1 + 1/(2 lt), i.e. hbar*omega ~ hw~ - T + T^2/(2 hw~)
    with hw~ = 2 sqrt(V0 T).  Requires V0 / T > 4.
    """
    check_count("oscillator-side expansion order", order, 1, 3)
    scales, depth_ratio = _regime_scales(params, HO_REGIME)
    lam_tilde = 2.0 * math.sqrt(depth_ratio)
    lam = lam_tilde
    if order >= 2:
        lam -= 1.0
    if order >= 3:
        lam += 0.5 / lam_tilde
    return LimitExpansion(
        regime=HO_REGIME,
        lambda_approx=lam,
        oscillator_quantum_approx=scales.kinetic_scale * lam,
        order_kept=order,
        kinetic_scale=scales.kinetic_scale,
    )
