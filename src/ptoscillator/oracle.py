"""Independent numerical verification of the closed-form spectra.

A second-order finite-difference discretization of the Hamiltonian on a
uniform grid over (-L, L) gives a symmetric tridiagonal matrix whose
lowest eigenvalues are computed by bisection on Sturm sequences (LAPACK,
via scipy).  The hard walls are imposed by excluding the endpoints, so
every sampled potential value is finite and the divergence of tan^2
near the walls enforces decay on its own; no capping is applied.

Richardson extrapolation over grids N, 2N+1, (4N+3) removes the leading
h^2 (and h^4) error terms.  Level pressures come from the Hellmann-Feynman
identity on each grid: in the scaled coordinate x = L u the matrix is
K / L^2 + V(u) with V(u) independent of L, so the discrete level obeys

    -dE_h/dL = (2 / L) (E_h - sum_i V_i psi_i^2)

exactly for its normalized eigenvector psi.  These per-grid pressures are
extrapolated with the same weights as the eigenvalues; no step in L is
taken.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal

from .errors import ConvergenceError, InvalidParameterError, ResourceLimitError
from .parameters import PTParameters, check_level, potential
from .spectra import levels

__all__ = [
    "MAX_GRID_POINTS",
    "GridSpec",
    "NumericalSpectrum",
    "solve_eigenvalues",
    "numerical_pressure",
    "ConvergenceReport",
    "convergence_study",
]

MAX_GRID_POINTS = 262_144

_MIN_GRID_POINTS = 64
_STEP_MIN = 1e-7
_STEP_MAX = 1e-2


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Discretization controls for the eigensolver.

    ``interior_points`` is the number of interior nodes N; the spacing
    is h = 2 L / (N + 1).  ``richardson_levels`` grids are solved, each
    halving h, and extrapolated.  ``level_count`` is how many lowest
    eigenvalues to return.
    """

    interior_points: int
    richardson_levels: int = 2
    level_count: int = 1

    def __post_init__(self) -> None:
        if self.interior_points < _MIN_GRID_POINTS:
            raise InvalidParameterError(
                f"interior_points must be >= {_MIN_GRID_POINTS}, got {self.interior_points!r}"
            )
        if self.richardson_levels not in (1, 2, 3):
            raise InvalidParameterError(
                f"richardson_levels must be 1, 2 or 3, got {self.richardson_levels!r}"
            )
        if self.level_count < 1:
            raise InvalidParameterError(
                f"level_count must be >= 1, got {self.level_count!r}"
            )
        finest = self.grid_sequence()[-1]
        if finest > MAX_GRID_POINTS:
            raise ResourceLimitError(
                f"finest grid {finest} exceeds the configured maximum {MAX_GRID_POINTS}"
            )

    def grid_sequence(self) -> tuple[int, ...]:
        """Interior point counts of the refinement sequence, coarse first."""
        sizes = [self.interior_points]
        for _ in range(self.richardson_levels - 1):
            sizes.append(2 * sizes[-1] + 1)
        return tuple(sizes)


@dataclass(frozen=True, slots=True)
class NumericalSpectrum:
    """Extrapolated eigenvalues with per-level error estimates.

    ``error_estimates`` holds the magnitude of the last extrapolation
    correction per level, or NaN when richardson_levels is 1 and no
    estimate exists.
    """

    eigenvalues: np.ndarray
    error_estimates: np.ndarray
    grid: GridSpec


def _fd_hamiltonian(
    params: PTParameters, n_points: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Potential at the interior nodes, diagonal and off-diagonal of the
    finite-difference Hamiltonian on ``n_points`` nodes, checked to hold
    ``count`` levels."""
    if count > n_points:
        raise InvalidParameterError(
            f"cannot request {count} eigenvalues from a grid of {n_points} points"
        )
    spacing = 2.0 * params.half_width / (n_points + 1)
    nodes = -params.half_width + spacing * np.arange(1, n_points + 1)
    kinetic = params.hbar**2 / (2.0 * params.mass * spacing**2)
    values = potential(params, nodes)
    diagonal = 2.0 * kinetic + values
    off_diagonal = np.full(n_points - 1, -kinetic)
    return values, diagonal, off_diagonal


def _fd_lowest_eigenvalues(params: PTParameters, n_points: int, count: int) -> np.ndarray:
    _, diagonal, off_diagonal = _fd_hamiltonian(params, n_points, count)
    try:
        return eigh_tridiagonal(
            diagonal, off_diagonal, select="i", select_range=(0, count - 1), eigvals_only=True
        )
    except LinAlgError as exc:
        raise ConvergenceError(f"tridiagonal eigenvalue iteration failed: {exc}") from exc


def _fd_pressure(params: PTParameters, n_points: int, n: int) -> float:
    """Exact -dE_h/dL of level ``n`` on one grid, from its eigenvector."""
    values, diagonal, off_diagonal = _fd_hamiltonian(params, n_points, n)
    try:
        energy, vector = eigh_tridiagonal(
            diagonal, off_diagonal, select="i", select_range=(n - 1, n - 1)
        )
    except LinAlgError as exc:
        raise ConvergenceError(f"tridiagonal eigenvector iteration failed: {exc}") from exc
    kinetic_energy = energy[0] - values @ vector[:, 0] ** 2
    return 2.0 * kinetic_energy / params.half_width


def _richardson(columns: list) -> tuple:
    """Extrapolate values from grids whose spacing halves at each step.

    Returns the extrapolated value and the magnitude of the last
    correction, or NaN when there is a single grid.
    """
    if len(columns) == 1:
        return columns[0], np.full_like(columns[0], np.nan)
    order = 2
    while len(columns) > 1:
        weight = 2.0**order
        previous = columns
        columns = [
            (weight * columns[i + 1] - columns[i]) / (weight - 1.0)
            for i in range(len(columns) - 1)
        ]
        order += 2
    return columns[0], np.abs(columns[0] - previous[-1])


def solve_eigenvalues(params: PTParameters, grid: GridSpec) -> NumericalSpectrum:
    """Lowest eigenvalues of the discretized Hamiltonian, extrapolated."""
    columns = [
        _fd_lowest_eigenvalues(params, size, grid.level_count) for size in grid.grid_sequence()
    ]
    eigenvalues, estimates = _richardson(columns)
    if np.any(eigenvalues <= 0.0) or np.any(np.diff(eigenvalues) <= 0.0):
        raise ConvergenceError(
            "extrapolated eigenvalues are not strictly increasing and positive; "
            "refine the grid"
        )
    return NumericalSpectrum(eigenvalues=eigenvalues, error_estimates=estimates, grid=grid)


def numerical_pressure(
    params: PTParameters,
    n: int,
    relative_step: float = 1e-4,
    use_eigenvalues: bool = False,
    grid: GridSpec | None = None,
) -> float:
    """Level pressure -dE_n/dL, computed apart from the closed-form pressure.

    By default the closed-form energy is differenced centrally in L at
    relative steps ``relative_step`` and half of it, and the two
    quotients are Richardson extrapolated; the step is used by this
    branch only.  With ``use_eigenvalues`` the pressure is the
    Hellmann-Feynman value of the finite-difference level on each grid
    of ``grid`` (default ``GridSpec(4000, 2, level_count=n)``),
    extrapolated like the eigenvalues, which makes the check fully
    independent of the closed forms.
    """
    check_level(n)
    if not _STEP_MIN <= relative_step <= _STEP_MAX:
        raise InvalidParameterError(
            f"relative_step must lie in [{_STEP_MIN}, {_STEP_MAX}], got {relative_step!r}"
        )
    if use_eigenvalues:
        solve_grid = grid if grid is not None else GridSpec(4000, richardson_levels=2, level_count=n)
        if solve_grid.level_count < n:
            raise InvalidParameterError(
                f"grid.level_count={solve_grid.level_count} is below the requested level {n}"
            )
        columns = [_fd_pressure(params, size, n) for size in solve_grid.grid_sequence()]
        return float(_richardson(columns)[0])

    length = params.half_width

    def quotient(delta: float) -> float:
        upper = levels(replace(params, half_width=length * (1.0 + delta)), n).energy_total
        lower = levels(replace(params, half_width=length * (1.0 - delta)), n).energy_total
        return -(upper - lower) / (2.0 * length * delta)

    coarse = quotient(relative_step)
    fine = quotient(0.5 * relative_step)
    return (4.0 * fine - coarse) / 3.0


@dataclass(frozen=True, slots=True)
class ConvergenceReport:
    """Measured discretization orders of the raw (unextrapolated) scheme.

    ``errors[i, j]`` is |E_numeric - E_closed| for grid i and level j;
    ``slopes[j]`` is the fitted log-log slope of that error against the
    spacing h, expected near 2 for the second-order stencil.
    """

    grid_sizes: tuple[int, ...]
    spacings: tuple[float, ...]
    errors: np.ndarray
    slopes: np.ndarray


def convergence_study(
    params: PTParameters, grid_sizes: list[int], level_count: int
) -> ConvergenceReport:
    """Fit per-level convergence slopes over a sequence of grids."""
    if len(grid_sizes) < 2:
        raise InvalidParameterError("at least two grid sizes are required")
    if any(size < _MIN_GRID_POINTS for size in grid_sizes):
        raise InvalidParameterError(f"every grid size must be >= {_MIN_GRID_POINTS}")
    if level_count < 1:
        raise InvalidParameterError(f"level_count must be >= 1, got {level_count!r}")
    closed = levels(params, np.arange(1, level_count + 1)).energy_total
    spacings = []
    errors = []
    for size in sorted(grid_sizes):
        numeric = _fd_lowest_eigenvalues(params, size, level_count)
        spacings.append(2.0 * params.half_width / (size + 1))
        errors.append(np.abs(numeric - closed))
    error_matrix = np.array(errors)
    log_h = np.log(np.array(spacings))
    slopes = np.array(
        [
            np.polyfit(log_h, np.log(error_matrix[:, level]), 1)[0]
            for level in range(level_count)
        ]
    )
    return ConvergenceReport(
        grid_sizes=tuple(sorted(grid_sizes)),
        spacings=tuple(spacings),
        errors=error_matrix,
        slopes=slopes,
    )
