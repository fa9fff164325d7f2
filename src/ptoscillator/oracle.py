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

The first grid is solved by index, bisecting from the Gershgorin
interval of each block (LAPACK ``stebz`` through ``eigh_tridiagonal``,
absolute tolerance eps ||T||).  Each later grid already has every level
placed to about 1e-5 relative by the grids before it, so it bisects each
level only inside a bracket around that prediction (Barth, Martin &
Wilkinson, Numer. Math. 9, 386 (1967)): 1e-3 relative around the coarser
energy on the second grid, and on the third around c2 + (c2 - c1) / 2^p,
p the leading exponent below, with half-width 4 |c2 - c1| / 2^p +
1e-12 c2.  ``stebz`` in value mode on (-||T||_inf, x] with an absolute
tolerance above that width stops after its endpoint Sturm counts and
returns count(x), the number of eigenvalues at or below x.  A block's
brackets are certified when they are disjoint, ascending and above
-||T||_inf, count at the first lower end equals the index of its first
wanted eigenvalue, count at the last upper end equals one past its last,
and each bracket holds exactly one eigenvalue; bracket j then holds the
j-th wanted eigenvalue.
Inside a certified bracket the bisection stops at eps ||T||_inf / 16 of
the block, below LAPACK's default, and eigenvectors come from ``stein``.
A block whose brackets fail any of these checks is solved by index, as
on the first grid.  ``solve_eigenvalues`` and the Hellmann-Feynman
pressure below bracket their later grids; ``convergence_study`` solves
every grid by index.

Richardson extrapolation over grids N, 2N+1, (4N+3) removes the two
leading error terms: h^2 and h^4, or, for 0 < V0 / T < 3/4, the wall term
h^q, q = sqrt(1 + 4 V0 / T), and h^2 (Sidi, Practical Extrapolation
Methods, CUP 2003, on non-integer exponents).  Level pressures come from
the Hellmann-Feynman identity on each grid: in the scaled coordinate
x = L u the matrix is K / L^2 + V(u) with V(u) independent of L, so the
discrete level obeys

    -dE_h/dL = (2 / L) (E_h - sum_i V_i psi_i^2)

exactly for its normalized eigenvector psi.  For a unit eigenvector u of
the level's parity block that sum is sum_i V_i u_i^2 over the block's
nodes, so the block vector serves in place of psi.  These per-grid
pressures, on the fixed grids N = 4000 and 8001, are extrapolated with
the exponents of the eigenvalues; no step in L is taken.
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
        for name in ("interior_points", "richardson_levels", "level_count"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
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


# the two grids of the Hellmann-Feynman branch of numerical_pressure
_PRESSURE_GRID = GridSpec(4000, richardson_levels=2)


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
    # numpy arithmetic, so that k or V overflowing, or h^2 underflowing,
    # ends in the range check below instead of a float exception
    with np.errstate(all="ignore"):
        kinetic = np.float64(params.hbar * params.hbar) / (2.0 * params.mass * (spacing * spacing))
        values = potential(params, nodes)
        diagonal = 2.0 * kinetic + values
    if not (0.0 < kinetic < math.inf and np.isfinite(diagonal).all()):
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


def _bracketed(diagonal, off_diagonal, low: int, lower, upper, vectors: bool):
    """Eigenvalues low, low + 1, ... of one block, one in each bracket
    (lower[j], upper[j]], and with ``vectors`` their unit vectors, found by
    bisection inside the brackets; None when the Sturm counts do not
    certify that bracket j holds eigenvalue low + j."""
    from scipy.linalg import get_lapack_funcs

    stebz, stein = get_lapack_funcs(("stebz", "stein"), (diagonal, off_diagonal))
    magnitude = np.abs(off_diagonal)
    rows = np.abs(diagonal)
    rows[:-1] += magnitude
    rows[1:] += magnitude
    norm = rows.max()  # ||T||_inf, so -norm lies below every eigenvalue
    if not (-norm < lower[0] and np.all(lower < upper) and np.all(upper[:-1] < lower[1:])):
        return None

    def bisect(start, stop, tolerance):
        found, values, block, splits, info = stebz(
            diagonal, off_diagonal, 1, start, stop, 0, 0, tolerance, "B"
        )
        if info:
            raise ConvergenceError(f"tridiagonal eigensolver failed: stebz info {info}")
        return found, values, block, splits

    def count(x):
        # an abstol above the interval's width stops after the endpoint counts
        return bisect(-norm, x, 2.0 * (x + norm))[0]

    if count(lower[0]) != low or count(upper[-1]) != low + lower.size:
        return None
    tolerance = np.finfo(float).eps * norm / 16.0
    energies = np.empty(lower.size)
    vector = np.empty((diagonal.size, lower.size)) if vectors else None
    for j, bracket in enumerate(zip(lower, upper)):
        found, values, block, splits = bisect(*bracket, tolerance)
        if found != 1:
            return None
        energies[j] = values[0]
        if vectors:
            column, info = stein(diagonal, off_diagonal, values[:1], block, splits)
            if info:
                raise ConvergenceError(f"tridiagonal eigensolver failed: stein info {info}")
            vector[:, j] = column[:, 0]
    return (energies, vector) if vectors else energies


def _fd_levels(
    params: PTParameters,
    n_points: int,
    first: int,
    last: int,
    vectors: bool = False,
    brackets: tuple | None = None,
) -> tuple:
    """Energies of levels ``first``..``last`` on one grid, solved per
    parity block, and with ``vectors`` their exact -dE_h/dL, else None.

    Level l is eigenvalue (l - 1) // 2 of block (l - 1) % 2, and a block
    with no wanted level is skipped.  A unit block eigenvector u gives the
    full-grid sum_i V_i psi_i^2 as ``values @ u**2``.  ``brackets``, a pair
    of arrays (lower, upper) over the wanted levels, lets each block
    bisect inside them; a block they do not certify is solved by index.
    """
    from scipy.linalg import eigh_tridiagonal

    energies = np.empty(last - first + 1)
    pressures = np.empty_like(energies) if vectors else None
    blocks = _parity_blocks(params, n_points, last)
    for parity, (values, diagonal, off_diagonal) in enumerate(blocks):
        low, high = (first - parity) // 2, (last - 1 - parity) // 2
        if low > high:
            continue
        wanted = slice(2 * low + parity + 1 - first, None, 2)
        solution = None
        if brackets is not None:
            solution = _bracketed(
                diagonal, off_diagonal, low, brackets[0][wanted], brackets[1][wanted], vectors
            )
        if solution is None:
            try:
                solution = eigh_tridiagonal(
                    diagonal, off_diagonal, select="i", select_range=(low, high),
                    eigvals_only=not vectors,
                )
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(f"tridiagonal eigensolver failed: {exc}") from exc
        if vectors:
            solution, vector = solution
            pressures[wanted] = 2.0 * (solution - values @ vector**2) / params.half_width
        energies[wanted] = solution
    return energies, pressures


def _brackets(energies: list, exponent: float) -> tuple | None:
    """Brackets (lower, upper) of the levels on the next grid, from their
    energies on the grids before it, or None for the first grid: 1e-3
    relative around the one coarser energy, else around the step to the
    next grid predicted from the last two, h^``exponent`` with h halving."""
    if not energies:
        return None
    if len(energies) == 1:
        centre, half = energies[0], 1e-3 * np.abs(energies[0])
    else:
        step = (energies[-1] - energies[-2]) / 2.0**exponent
        centre, half = energies[-1] + step, 4.0 * np.abs(step) + 1e-12 * np.abs(energies[-1])
    return centre - half, centre + half


def _wall_exponents(params: PTParameters) -> tuple:
    """Exponents of the two leading error terms of a level, in h.

    Near a wall V ~ V0 / (alpha d)^2 at distance d, so the level function
    goes as d^s with s (s - 1) = V0 / T, T = hbar^2 alpha^2 / (2 m), and
    the wall adds an error term h^q, q = 2 s - 1 = sqrt(1 + 4 V0 / T), to
    the bulk h^2.  It leads when q < 2, i.e. V0 / T < 3/4; a box
    (V0 = 0) has no wall term.
    """
    kinetic = (params.hbar * params.hbar) * (params.alpha * params.alpha) / (2.0 * params.mass)
    if 0.0 < params.well_depth < 0.75 * kinetic:
        return math.sqrt(1.0 + 4.0 * (params.well_depth / kinetic)), 2
    return 2, 4


def _richardson(columns: list, exponents: tuple) -> tuple:
    """Extrapolate values from grids whose spacing halves at each step,
    removing the error terms h^p for the p of ``exponents`` in turn.

    Returns the extrapolated value and the magnitude of the last
    correction, or NaN when there is a single grid.  Raises
    :class:`ConvergenceError` when the extrapolated value is not finite.
    """
    estimate = np.full_like(columns[0], np.nan)
    for exponent in exponents[: len(columns) - 1]:
        weight = 2.0**exponent
        previous = columns
        columns = [
            (weight * columns[i + 1] - columns[i]) / (weight - 1.0)
            for i in range(len(columns) - 1)
        ]
        estimate = np.abs(columns[0] - previous[-1])
    if not np.all(np.isfinite(columns[0])):
        raise ConvergenceError(f"extrapolated values are not finite: {columns[0]!r}")
    return columns[0], estimate


def solve_eigenvalues(params: PTParameters, grid: GridSpec) -> NumericalSpectrum:
    """Lowest eigenvalues of the discretized Hamiltonian, extrapolated."""
    exponents = _wall_exponents(params)
    columns = []
    for size in grid.grid_sequence():
        brackets = _brackets(columns, exponents[0])
        columns.append(_fd_levels(params, size, 1, grid.level_count, brackets=brackets)[0])
    eigenvalues, estimates = _richardson(columns, exponents)
    if np.any(eigenvalues <= 0.0) or np.any(np.diff(eigenvalues) <= 0.0):
        raise ConvergenceError(
            "extrapolated eigenvalues are not strictly increasing and positive; "
            "refine the grid"
        )
    return NumericalSpectrum(eigenvalues=eigenvalues, error_estimates=estimates)


def numerical_pressure(params: PTParameters, n: int, use_eigenvalues: bool = False) -> float:
    """Level pressure -dE_n/dL, computed apart from the closed-form pressure.

    By default the closed-form energy is differenced centrally in L at
    relative steps 1e-4 and half of it, and the two quotients are
    Richardson extrapolated.  With ``use_eigenvalues`` the pressure is the
    Hellmann-Feynman value of the finite-difference level on the grids
    N = 4000 and 8001, extrapolated like the eigenvalues, which makes the
    check fully independent of the closed forms.
    """
    check_single_level(n)
    if use_eigenvalues:
        exponents = _wall_exponents(params)
        energies, columns = [], []
        for size in _PRESSURE_GRID.grid_sequence():
            brackets = _brackets(energies, exponents[0])
            energy, pressure = _fd_levels(params, size, n, n, vectors=True, brackets=brackets)
            energies.append(energy)
            columns.append(pressure[0])
        return float(_richardson(columns, exponents)[0])

    length = params.half_width

    def quotient(delta: float) -> float:
        upper = levels(replace(params, half_width=length * (1.0 + delta)), n).energy_total
        lower = levels(replace(params, half_width=length * (1.0 - delta)), n).energy_total
        return -(upper - lower) / (2.0 * length * delta)

    quotients = [quotient(_DIFFERENCE_STEP), quotient(0.5 * _DIFFERENCE_STEP)]
    return float(_richardson(quotients, (2,))[0])


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
        numeric = _fd_levels(params, size, 1, level_count)[0]
        spacings.append(2.0 * params.half_width / (size + 1))
        errors.append(np.abs(numeric - closed))
    error_matrix = np.array(errors)
    slopes = np.polyfit(np.log(np.array(spacings)), np.log(error_matrix), 1)[0]
    return ConvergenceReport(
        grid_sizes=tuple(sorted(grid_sizes)),
        spacings=tuple(spacings),
        errors=error_matrix,
        slopes=slopes,
    )
