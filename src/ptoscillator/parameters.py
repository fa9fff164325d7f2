"""Physical inputs of the confined Poschl-Teller oscillator and the
derived scale quantities every spectral formula consumes.

The model is a particle of mass m in the even trigonometric well

    V(x) = V0 * tan^2(alpha * x),   alpha = pi / (2 * L),   -L < x < L,

which diverges at x = +-L and therefore carries its own impenetrable
walls.  Everything downstream is written in terms of four scales:

* ``alpha``             wall wavenumber, pi / (2 L)
* ``kinetic_scale``     T = hbar^2 alpha^2 / (2 m), the ground-state
                        energy of a free particle in the same box
* ``lambda_exact``      dimensionless shape parameter
                        sqrt(1 + 4 V0 / T) - 1, small in the box regime
                        and large in the oscillator regime
* ``oscillator_quantum``  hbar*omega = T * lambda, the effective
                        harmonic quantum of the well bottom

plus ``psi_factor`` (the logarithmic derivative combination entering the
pressure) and ``n_critical`` = 1 / lambda (the level index separating
oscillator-like from box-like behaviour).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from .errors import DomainError, InvalidParameterError

__all__ = [
    "PTParameters",
    "DerivedScales",
    "derive_scales",
    "potential",
]


@dataclass(frozen=True, slots=True)
class PTParameters:
    """Physical inputs: mass, well intensity V0, half-width L and hbar.

    Reduced units (hbar = m = 1) are the intended default, but all four
    constants stay explicit so SI inputs work unchanged.  ``well_depth``
    may be exactly zero, which degenerates the model to the particle in
    a box; the walls are kept as the domain boundary.
    """

    mass: float
    well_depth: float
    half_width: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("mass", "half_width", "hbar"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise InvalidParameterError(f"{name} must be positive and finite, got {value!r}")
        if not math.isfinite(self.well_depth) or self.well_depth < 0.0:
            raise InvalidParameterError(
                f"well_depth must be finite and >= 0, got {self.well_depth!r}"
            )

    @property
    def alpha(self) -> float:
        """Wall wavenumber pi / (2 L)."""
        return math.pi / (2.0 * self.half_width)


@dataclass(frozen=True, slots=True)
class DerivedScales:
    """All scale quantities derived from :class:`PTParameters`.

    ``zeta_squared`` and ``n_critical`` are reported as ``inf`` in the
    zero-depth (pure box) limit where lambda vanishes.
    """

    alpha: float
    kinetic_scale: float
    zeta_squared: float
    lambda_exact: float
    oscillator_quantum: float
    psi_factor: float
    n_critical: float


def check_count(name: str, value, low: int, high: float = math.inf) -> None:
    """Raise :class:`InvalidParameterError` unless ``value``, the count
    ``name``, is a Python or numpy integer in [low, high]; a bool or a
    float equal to one is rejected."""
    # numpy registers its integer types as numbers.Integral
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integer and low <= value <= high):
        raise InvalidParameterError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


def check_level(n):
    """Return ``n``, one int or an int array, as a numpy array; reject
    any quantum number that is not an integer in [1, 2**64) (booleans
    included)."""
    import numpy as np

    array = np.asarray(n)
    if array.dtype.kind not in "iu" or (array < 1).any():
        raise InvalidParameterError(f"quantum number must be an integer in [1, 2**64), got {n!r}")
    return array


def check_single_level(n) -> None:
    """:func:`check_level` for the functions of one level: an int array
    is rejected too.  A Python int in range is accepted without numpy."""
    if type(n) is int and 1 <= n < 2**64:
        return
    if check_level(n).ndim:
        raise InvalidParameterError(f"expected a single quantum number, got {n!r}")


def check_finite(quantity: str, n, total: float) -> None:
    """Raise :class:`DomainError` when ``total``, the ``quantity`` of
    level ``n``, is not finite."""
    if not math.isfinite(total):
        raise DomainError(
            f"{quantity} of level {n} leaves the floating-point range (total {float(total)!r})"
        )


def derive_scales(params: PTParameters) -> DerivedScales:
    """Compute every derived scale of the well.

    lambda is evaluated in the rationalized form

        lambda = (4 V0 / T) / (1 + sqrt(1 + 4 V0 / T)),

    algebraically equal to sqrt(1 + 4 V0 / T) - 1 but free of the
    catastrophic cancellation the literal form suffers when V0 / T is
    tiny (deep box regime).  psi is stored as the stable product form
    lambda (lambda + 2) / (lambda + 1).

    Raises :class:`DomainError` when T or 4 V0 / T leaves the finite
    floating-point range, or when hbar^2, alpha^2, their product or T is
    below the smallest normal float (a subnormal keeps only a few bits),
    instead of returning non-finite or inaccurate scales.
    """
    alpha = params.alpha
    hbar_sq, alpha_sq = params.hbar * params.hbar, alpha * alpha
    kinetic = hbar_sq * alpha_sq / (2.0 * params.mass)
    if not (min(hbar_sq, alpha_sq, hbar_sq * alpha_sq, kinetic) >= sys.float_info.min
            and kinetic < math.inf):
        raise DomainError(
            f"kinetic scale T = hbar^2 alpha^2 / (2 m) = {kinetic!r} or one of its factors "
            "is outside the normal floating-point range"
        )
    ratio = 4.0 * params.well_depth / kinetic
    if not math.isfinite(ratio):
        raise DomainError(f"4 V0 / T overflows the floating-point range (T = {kinetic!r})")
    if params.well_depth > 0.0:
        zeta_squared = kinetic / (math.pi**2 * params.well_depth)
        lam = ratio / (1.0 + math.sqrt(1.0 + ratio))
    else:
        zeta_squared = math.inf
        lam = 0.0
    # lam can underflow to 0 for subnormal depths; the sentinel applies then too
    n_critical = 1.0 / lam if lam > 0.0 else math.inf
    psi = lam * (lam + 2.0) / (lam + 1.0)
    return DerivedScales(
        alpha=alpha,
        kinetic_scale=kinetic,
        zeta_squared=zeta_squared,
        lambda_exact=lam,
        oscillator_quantum=kinetic * lam,
        psi_factor=psi,
        n_critical=n_critical,
    )


def potential(params: PTParameters, x):
    """Evaluate V(x) = V0 tan^2(alpha x) for scalar or array ``x``.

    Raises :class:`DomainError` if any coordinate reaches the walls,
    where the potential is singular, or is NaN, and if any value
    overflows.
    """
    import numpy as np

    arr = np.asarray(x, dtype=float)
    if not np.all(np.abs(arr) < params.half_width):
        raise DomainError(
            f"coordinate outside the open interval (-L, L) with L={params.half_width!r}"
        )
    with np.errstate(over="ignore"):
        values = params.well_depth * np.tan(params.alpha * arr) ** 2
    if not np.all(np.isfinite(values)):
        raise DomainError(f"V(x) leaves the floating-point range with V0={params.well_depth!r}")
    if np.isscalar(x) or arr.ndim == 0:
        return float(values)
    return values
