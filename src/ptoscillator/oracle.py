"""Independent numerical verification of the closed-form spectra.

A second-order finite-difference discretization of the Hamiltonian on a
uniform grid over (-L, L) gives a symmetric tridiagonal matrix whose
lowest eigenvalues are computed by bisection on Sturm sequences (LAPACK,
via scipy).  The hard walls are imposed by excluding the endpoints, so
every sampled potential value is finite and the divergence of tan^2
near the walls enforces decay on its own; no capping is applied.
scipy is imported on the first solver call, so programs that use only
the closed forms never load it.

The potential is even and the grid is mirror-symmetric about x = 0, so
the matrix splits exactly into an even and an odd block of about half
its size.  Only the left-half nodes h (i - (N + 1)/2), i = 1..N - N//2,
are built, and both blocks are read off them; the full matrix never is.
With every off-diagonal entry equal to -k (k = hbar^2 / (2 m h^2)):

* N = 2M: both blocks are the M half-grid nodes, with the last diagonal
  entry d_M - k for the even block and d_M + k for the odd block;
* N = 2M + 1: the even block is the M + 1 half-grid nodes, centre
  included, with its last off-diagonal entry -sqrt(2) k; the odd block
  is the first M of them unchanged.

The eigenvalues of a mirror-symmetric Jacobi matrix are simple and
alternate in parity, starting with even (Cantoni & Butler, Linear
Algebra Appl. 13, 275 (1976)), so level n is the ((n - 1) // 2)-th
eigenvalue of the even block for odd n and of the odd block for even n.

Richardson extrapolation over grids N, 2N+1, (4N+3) removes the leading
h^2 (and h^4) error terms.  Level pressures come from the Hellmann-Feynman
identity on each grid: in the scaled coordinate x = L u the matrix is
K / L^2 + V(u) with V(u) independent of L, so the discrete level obeys

    -dE_h/dL = (2 / L) (E_h - sum_i V_i psi_i^2)

exactly for its normalized eigenvector psi.  For a unit eigenvector u of
the level's parity block that sum is sum_i V_i u_i^2 over the block's
nodes, so the block vector serves in place of psi.  These per-grid
pressures are extrapolated with the same weights as the eigenvalues; no
step in L is taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DomainError, InvalidParameterError, ResourceLimitError
from .parameters import PTParameters, check_single_level, potential
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
# relative step in L of the closed-form branch of numerical_pressure
_DIFFERENCE_STEP = 1e-4


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


def _parity_blocks(params: PTParameters, n_points: int, count: int) -> tuple[tuple, tuple]:
    """Even and odd parity blocks of the finite-difference Hamiltonian on
    ``n_points`` nodes, each ``(values, diagonal, off_diagonal)`` over its
    nodes, built from the left half of the grid as the module docstring
    describes and checked to hold ``count`` levels and to be finite."""
    if count > n_points:
        raise InvalidParameterError(
            f"cannot request {count} eigenvalues from a grid of {n_points} points"
        )
    spacing = 2.0 * params.half_width / (n_points + 1)
    # Offsets from the centre are exact in floating point, so the sampled
    # potential is exactly mirror-symmetric, as the parity fold assumes.
    nodes = spacing * (np.arange(1, n_points - n_points // 2 + 1) - 0.5 * (n_points + 1))
    kinetic = params.hbar**2 / (2.0 * params.mass * spacing**2)
    values = potential(params, nodes)
    diagonal = 2.0 * kinetic + values
    if not (np.isfinite(kinetic) and np.isfinite(diagonal).all()):
        raise DomainError(
            f"finite-difference Hamiltonian on {n_points} points leaves the floating-point range"
        )
    off_diagonal = np.full(nodes.size - 1, -kinetic)
    if n_points % 2:
        coupling = off_diagonal.copy()
        coupling[-1] *= math.sqrt(2.0)
        return (values, diagonal, coupling), (values[:-1], diagonal[:-1], off_diagonal[:-1])
    # the coupling -k of node M to its mirror image folds into the diagonal
    even_diagonal = diagonal.copy()
    even_diagonal[-1] -= kinetic
    diagonal[-1] += kinetic
    return (values, even_diagonal, off_diagonal), (values, diagonal, off_diagonal)


def _fd_lowest_eigenvalues(params: PTParameters, n_points: int, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues on one grid, solved per parity block.

    The levels alternate even, odd, even, ..., so the even block supplies
    levels 1, 3, 5, ... and the odd block levels 2, 4, 6, ...
    """
    from scipy.linalg import eigh_tridiagonal

    eigenvalues = np.empty(count)
    for parity, (_, diagonal, off_diagonal) in enumerate(_parity_blocks(params, n_points, count)):
        wanted = (count + 1 - parity) // 2
        if wanted == 0:
            continue
        try:
            eigenvalues[parity::2] = eigh_tridiagonal(
                diagonal, off_diagonal, select="i", select_range=(0, wanted - 1), eigvals_only=True
            )
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"tridiagonal eigenvalue iteration failed: {exc}") from exc
    return eigenvalues


def _fd_pressure(params: PTParameters, n_points: int, n: int) -> float:
    """Exact -dE_h/dL of level ``n`` on one grid, from its eigenvector.

    A unit eigenvector u of the level's parity block gives the full-grid
    sum_i V_i psi_i^2 as ``values @ u**2`` over the block's nodes.
    """
    from scipy.linalg import eigh_tridiagonal

    values, diagonal, off_diagonal = _parity_blocks(params, n_points, n)[(n - 1) % 2]
    index = (n - 1) // 2
    try:
        energy, vector = eigh_tridiagonal(
            diagonal, off_diagonal, select="i", select_range=(index, index)
        )
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"tridiagonal eigenvector iteration failed: {exc}") from exc
    kinetic_energy = energy[0] - values @ vector[:, 0] ** 2
    return 2.0 * kinetic_energy / params.half_width


def _richardson(columns: list) -> tuple:
    """Extrapolate values from grids whose spacing halves at each step.

    Returns the extrapolated value and the magnitude of the last
    correction, or NaN when there is a single grid.  Raises
    :class:`ConvergenceError` when the extrapolated value is not finite.
    """
    estimate = np.full_like(columns[0], np.nan)
    order = 2
    while len(columns) > 1:
        weight = 2.0**order
        previous = columns
        columns = [
            (weight * columns[i + 1] - columns[i]) / (weight - 1.0)
            for i in range(len(columns) - 1)
        ]
        estimate = np.abs(columns[0] - previous[-1])
        order += 2
    if not np.all(np.isfinite(columns[0])):
        raise ConvergenceError(f"extrapolated values are not finite: {columns[0]!r}")
    return columns[0], estimate


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
    return NumericalSpectrum(eigenvalues=eigenvalues, error_estimates=estimates)


def numerical_pressure(
    params: PTParameters,
    n: int,
    use_eigenvalues: bool = False,
    grid: GridSpec | None = None,
) -> float:
    """Level pressure -dE_n/dL, computed apart from the closed-form pressure.

    By default the closed-form energy is differenced centrally in L at
    relative steps 1e-4 and half of it, and the two quotients are
    Richardson extrapolated.  With ``use_eigenvalues`` the pressure is the
    Hellmann-Feynman value of the finite-difference level on each grid
    of ``grid`` (default ``GridSpec(4000, 2, level_count=n)``),
    extrapolated like the eigenvalues, which makes the check fully
    independent of the closed forms.
    """
    check_single_level(n)
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

    coarse = quotient(_DIFFERENCE_STEP)
    fine = quotient(0.5 * _DIFFERENCE_STEP)
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
    for size in grid_sizes:
        GridSpec(size, richardson_levels=1, level_count=level_count)
    if len(set(grid_sizes)) < len(grid_sizes):
        raise InvalidParameterError(f"grid sizes must be distinct, got {grid_sizes!r}")
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
