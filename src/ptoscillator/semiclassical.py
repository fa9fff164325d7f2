"""Semiclassical (Bohr-Sommerfeld) quantization of the confined well.

The closed-orbit action

    I(E) = 2 * integral_{-x0}^{x0} p(x, E) dx,
    p(x, E) = sqrt(2 m (E - V0 tan^2(alpha x))),

set equal to 2 pi hbar (n - 1/2) yields the semiclassical spectrum.
The action integral has the closed form

    I(E) = (2 pi sqrt(2 m) / alpha) (sqrt(E + V0) - sqrt(V0)),

so the levels invert to

    E_n = (sqrt(T) (n - 1/2) + sqrt(V0))^2 - V0
        = sqrt(T) (n - 1/2) (sqrt(T) (n - 1/2) + 2 sqrt(V0)).

Both routes are provided: the closed form and, to validate it, the
action by a fixed tanh-sinh rule in numpy plus Newton's method on
I(E) = 2 pi hbar (n - 1/2), whose slope dI/dE is the orbit period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, InvalidParameterError, QuadratureError
from .parameters import PTParameters, check_finite, check_single_level, derive_scales

__all__ = [
    "ActionEvaluation",
    "turning_point",
    "action",
    "qc_energy_closed",
    "qc_energy_numeric",
]

_ACTION_REL_TOL = 1e-10

# Tanh-sinh rule on theta in [0, pi/2] (Takahasi & Mori, Publ. RIMS 9, 721 (1974)):
# theta = (pi/4) (1 + tanh u), u = (pi/2) sinh t, step 1/32 on t in [-3.5, 3.5]; the even
# nodes form the step-1/16 rule.  Nodes are stored as c = pi/4 - theta/2, so those near
# pi/2 keep their digits; weights include cos(theta) = sin(2c), from x = x0 sin(theta).
_T = np.arange(-112, 113) / 32.0
_U = 0.5 * np.pi * np.sinh(_T)
_NODES = 0.125 * np.pi * np.exp(-_U) / np.cosh(_U)
_WEIGHTS = np.pi**2 / 256.0 * np.cosh(_T) / np.cosh(_U) ** 2 * np.sin(2.0 * _NODES)


def turning_point(params: PTParameters, energy: float) -> float:
    """Positive turning point x0 with V(x0) = E, inside (0, L).

    A zero-depth well has no turning point; the wall L (to within an
    ulp) is returned as the edge of the classically allowed region.
    """
    if not 0.0 < energy < math.inf:
        raise InvalidParameterError(f"energy must be positive and finite, got {energy!r}")
    return math.atan2(math.sqrt(energy), math.sqrt(params.well_depth)) / params.alpha


@dataclass(frozen=True, slots=True)
class ActionEvaluation:
    """Closed-orbit action at one energy, its quadrature error bound and period dI/dE."""

    action: float
    quadrature_error: float
    period: float


def action(params: PTParameters, energy: float) -> ActionEvaluation:
    """Closed-orbit action and period dI/dE by the tanh-sinh rule.

    With x = x0 sin(theta), a = alpha x0, b = pi/2 - a and d = a (1 - sin theta)
    = 2 a sin^2 c, the gap E - V = (E + V0) sin(d) sin(2a - d) / sin^2(b + d) is free of
    cancellation; 2a - d and 2b + d sum to pi, so the sine of the smaller one is taken.
    The period sums m / p on the same nodes; a node where p underflows to 0 adds 0.
    Raises :class:`DomainError` when the action or the period is not finite and positive
    and :class:`QuadratureError` when the step-1/16 rule differs by more than 1e-10 relative.
    """
    x0 = turning_point(params, energy)
    root_e, root_v = math.sqrt(energy), math.sqrt(params.well_depth)
    a, b = math.atan2(root_e, root_v), math.atan2(root_v, root_e)
    with np.errstate(all="ignore"):
        d = 2.0 * a * np.sin(_NODES) ** 2
        sin_bd = np.sin(b + d)
        ratio = np.sin(d) / sin_bd * np.sin(np.minimum(2.0 * a - d, 2.0 * b + d)) / sin_bd
        # a product of roots, so p is finite wherever the action is
        p = math.sqrt(2.0 * params.mass) * math.sqrt(energy + params.well_depth) * np.sqrt(ratio)
        total = float(4.0 * x0 * (_WEIGHTS @ p))
        total_err = abs(total - float(8.0 * x0 * (_WEIGHTS[::2] @ p[::2])))
        slowness = np.divide(params.mass, p, out=np.zeros_like(p), where=p > 0.0)
        period = float(4.0 * x0 * (_WEIGHTS @ slowness))
    if not (math.isfinite(total) and 0.0 < period < math.inf):
        raise DomainError(f"action {total!r} or period {period!r} leaves the floating-point range")
    if not total_err <= _ACTION_REL_TOL * total:
        raise QuadratureError(f"quadrature error {total_err!r} exceeds {_ACTION_REL_TOL} relative")
    return ActionEvaluation(total, total_err, period)


def qc_energy_closed(params: PTParameters, n: int) -> float:
    """Semiclassical level energy from the closed-form action inversion,
    in the product form that does not cancel when V0 >> E.

    Raises :class:`DomainError` when the energy is not finite.
    """
    check_single_level(n)
    scaled = math.sqrt(derive_scales(params).kinetic_scale) * (n - 0.5)
    energy = scaled * (scaled + 2.0 * math.sqrt(params.well_depth))
    check_finite("semiclassical energy", n, energy)
    return energy


def qc_energy_numeric(params: PTParameters, n: int) -> float:
    """Semiclassical level energy by solving I(E) = 2 pi hbar (n - 1/2).

    Newton's method on the public :func:`action`, with the orbit period
    as slope, started from the closed form; it stops when a step is
    within 1e-14 of the energy.  Raises :class:`ConvergenceError` when a
    step leaves E positive and finite or 20 steps do not settle.
    """
    energy = qc_energy_closed(params, n)
    target = 2.0 * math.pi * params.hbar * (n - 0.5)
    for _ in range(20):
        orbit = action(params, energy)
        step = (orbit.action - target) / orbit.period
        energy -= step
        if not 0.0 < energy < math.inf:
            raise ConvergenceError(f"Newton step drives the energy of level {n} to {energy!r}")
        if abs(step) <= 1e-14 * energy:
            return energy
    raise ConvergenceError(f"Newton's method for level {n} did not settle in 20 steps")
