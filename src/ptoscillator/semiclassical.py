"""Semiclassical (Bohr-Sommerfeld) quantization of the confined well.

The closed-orbit action

    I(E) = 2 * integral_{-x0}^{x0} p(x, E) dx,
    p(x, E) = sqrt(2 m (E - V0 tan^2(alpha x))),

set equal to 2 pi hbar (n - 1/2) yields the semiclassical spectrum.
The action integral has the closed form

    I(E) = (2 pi sqrt(2 m) / alpha) (sqrt(E + V0) - sqrt(V0)),

so the levels invert to

    E_n = (sqrt(T) (n - 1/2) + sqrt(V0))^2 - V0
        = T (n - 1/2)^2 + 2 sqrt(V0 T) (n - 1/2).

Both routes are provided: the closed form and a quadrature-plus-root-find
evaluation used to validate it.  scipy's quadrature and root finder are
imported on the first call of :func:`action` or :func:`qc_energy_numeric`,
so the closed form never loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    BracketingError,
    DomainError,
    InvalidParameterError,
    QuadratureError,
)
from .parameters import PTParameters, check_finite, check_single_level, derive_scales, potential

__all__ = [
    "ActionEvaluation",
    "classical_momentum",
    "turning_point",
    "action",
    "qc_energy_closed",
    "qc_energy_numeric",
]

_ACTION_REL_TOL = 1e-10
# Momentum arguments may dip a hair below zero at the turning point from
# rounding alone; treat that as exactly zero.
_TURNING_SLACK = 1e-12


def classical_momentum(params: PTParameters, x: float, energy: float) -> float:
    """Classical momentum sqrt(2 m (E - V(x))), zero at the turning point.

    Raises :class:`DomainError` when x is not inside (-L, L) or the
    point is classically forbidden (E < V(x)).
    """
    if not 0.0 < energy < math.inf:
        raise InvalidParameterError(f"energy must be positive and finite, got {energy!r}")
    v = potential(params, x)
    gap = energy - v
    if gap < 0.0:
        if gap < -_TURNING_SLACK * max(energy, v):
            raise DomainError(f"classically forbidden point: E={energy!r} < V(x)={v!r}")
        gap = 0.0
    return math.sqrt(2.0 * params.mass * gap)


def turning_point(params: PTParameters, energy: float) -> float:
    """Positive turning point x0 with V(x0) = E, inside (0, L).

    A zero-depth well has no turning point; the wall L is returned as
    the edge of the classically allowed region.
    """
    if not 0.0 < energy < math.inf:
        raise InvalidParameterError(f"energy must be positive and finite, got {energy!r}")
    if params.well_depth == 0.0:
        return params.half_width
    return math.atan(math.sqrt(energy / params.well_depth)) / params.alpha


@dataclass(frozen=True, slots=True)
class ActionEvaluation:
    """Closed-orbit action at one energy plus its quadrature error bound."""

    turning_point: float
    action: float
    quadrature_error: float


def action(params: PTParameters, energy: float) -> ActionEvaluation:
    """Closed-orbit action by quadrature.

    The integrand vanishes like sqrt(x0 - x) at the turning points, so a
    uniform rule converges poorly there.  Substituting x = x0 sin(theta)
    absorbs the square root and leaves a smooth integrand on
    [0, pi/2], which adaptive quadrature then resolves to near machine
    precision.  Raises :class:`DomainError` when the action is not
    finite and :class:`QuadratureError` when its error bound is not
    within 1e-10 relative.
    """
    from scipy.integrate import quad

    x0 = turning_point(params, energy)
    alpha = params.alpha
    two_m = 2.0 * params.mass
    v0 = params.well_depth

    def integrand(theta: float) -> float:
        x = x0 * math.sin(theta)
        gap = energy - v0 * math.tan(alpha * x) ** 2
        return math.sqrt(two_m * max(gap, 0.0)) * x0 * math.cos(theta)

    quarter, err = quad(integrand, 0.0, 0.5 * math.pi, epsabs=0.0, epsrel=1e-12, limit=200)
    total = 4.0 * quarter
    total_err = 4.0 * err
    if not math.isfinite(total):
        raise DomainError(f"action at E={energy!r} leaves the floating-point range ({total!r})")
    if not total_err <= _ACTION_REL_TOL * total:
        raise QuadratureError(
            f"action quadrature error {total_err!r} exceeds {_ACTION_REL_TOL} relative"
        )
    return ActionEvaluation(turning_point=x0, action=total, quadrature_error=total_err)


def qc_energy_closed(params: PTParameters, n: int) -> float:
    """Semiclassical level energy from the closed-form action inversion.

    Raises :class:`DomainError` when the energy is not finite.
    """
    check_single_level(n)
    scales = derive_scales(params)
    root = math.sqrt(scales.kinetic_scale) * (n - 0.5) + math.sqrt(params.well_depth)
    energy = root * root - params.well_depth
    check_finite("semiclassical energy", n, energy)
    return energy


def qc_energy_numeric(params: PTParameters, n: int) -> float:
    """Semiclassical level energy by solving I(E) = 2 pi hbar (n - 1/2).

    The action is strictly increasing in E, so the root is unique; the
    bracket comes from the closed form widened by 50% each way.
    """
    from scipy.optimize import brentq

    closed = qc_energy_closed(params, n)
    target = 2.0 * math.pi * params.hbar * (n - 0.5)

    def residual(energy: float) -> float:
        return action(params, energy).action - target

    lo, hi = 0.5 * closed, 1.5 * closed
    r_lo, r_hi = residual(lo), residual(hi)
    if r_lo > 0.0 or r_hi < 0.0:
        raise BracketingError(
            f"action residual does not change sign on [{lo!r}, {hi!r}]; "
            "quadrature is likely misconfigured"
        )
    return brentq(residual, lo, hi, rtol=1e-14, maxiter=200)
