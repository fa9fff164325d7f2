"""Independent numerical verification of the closed-form spectra.

A second-order finite-difference discretization of the Hamiltonian on a
uniform grid over (-L, L) gives a symmetric tridiagonal matrix whose
lowest eigenvalues are computed by the LAPACK routines ``stebz``
(bisection on Sturm sequences), ``stein`` and ``gtsv`` (inverse
iteration).  The hard walls are imposed by excluding the endpoints, so
every sampled potential value is finite and the divergence of tan^2 near
the walls enforces decay on its own; no capping is applied.  The
routines are taken on the first solver call from scipy's compiled LAPACK
extension, loaded without the ``scipy.linalg`` package and its start-up,
so programs that use only the closed forms never load scipy.

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

Each grid is solved from centres that place its levels: on the first
grid of ``solve_eigenvalues`` and of the Hellmann-Feynman pressure
below, and on every grid of ``convergence_study``, the closed-form
spectrum E_n = T n^2 + hbar omega (n - 1/2) of ``spectra.levels``; on
each later grid the energies of the grid before it, within about 1e-5
relative of its own from 4000 nodes on.  The check does not lean on
them: the certificate below accepts an energy from the finite-difference
block alone (residual discs, Sturm counts at the fences and the
Kato-Temple bound;
Parlett, The Symmetric Eigenvalue Problem, SIAM 1998, ch. 10), so a
centre that does not certify, as on coarse grids, on the deepest wells
or above about level N / 4, costs at most a fallback to the index solve,
bisection from the Gershgorin interval of the block (``stebz``, absolute
tolerance eps ||T||) and ``stein`` for the vectors, the calls of scipy's
``eigh_tridiagonal``, and never enters a result.  Nothing else judges a
centre: its order and range need no check of their own, as the
certificate's fenced discs and Sturm counts reject centres that do not
place each wanted level.  A unit vector u of each placed level is taken
by inverse iteration at its centre, each step one ``gtsv`` solve, LU
with partial pivoting, of the shifted block.  From a start close to the
level's vector, at a shift this close to its eigenvalue, one step
suffices (Ipsen, SIAM Rev. 39, 254 (1997)).  Every grid, solved by index
or refined, hands its vectors to the next, whose nodes hold the coarse
ones at every other node: they are O(h^2) approximations of the finer
vectors and, interpolated linearly onto the finer nodes, start its
iteration; on a first grid, and on ``convergence_study``'s grids, whose
sizes need not double, a fixed ramp does.  Every block follows one rule:
it takes one step and then tries its certificate below, at most three
times.  The level's energy is the vector's Rayleigh quotient, whose
error is second order in the vector's (Parlett, ch. 4 and 10), summed as

    theta = sum_i r_i u_i^2 + sum_i |e_i| (u_i - u_{i+1})^2

with r_i the row sums of the block and e_i its off-diagonal.  The r_i are
V_i >= 0, or k + V_i and up to 2 k + V_i in the first and last rows, so
the sum avoids cancelling the terms 2 k u_i^2 of u^T T u, except at the
centre of an odd grid's even block, whose rows V_i - (sqrt(2) - 1) k and
V_i + (2 - sqrt(2)) k and the sqrt(2) k term between them, 0.1-0.4 k u_i^2
each, cancel to order 1: about 1e-13 relative rounding, which the 4 eps
term of rho covers.  The disc [theta - rho, theta + rho],

    rho = ||T u - theta u||_2 + 4 eps (||D u||_2 + 2 max_i |e_i| + |theta|),

the residual plus a bound on its rounding, holds an eigenvalue.  D u, the
diagonal's product, is where the residual starts, and the bound is at
least 4 eps (|| |T| |u| ||_2 + |theta|) for a unit u, as the off-diagonal
part of |T| has 2-norm at most 2 max_i |e_i|.  With
fences a = theta_first (1 - 1e-3) > -||T||_inf and b = theta_last
(1 + 1e-3), the block is certified when its discs are disjoint and lie
inside (a, b), count(a) equals the index of its first wanted eigenvalue
and count(b) one past its last, so that disc j holds eigenvalue low + j,
and the Kato-Temple bound rho^2 / delta of every level, delta the
distance from theta to the nearest other disc or fence, is at most
eps ||T||_inf / 16: no accepted energy is looser than a bisection to
that tolerance.  The Hellmann-Feynman pressure below is first order in
the vector, so for it a certified block takes one more step at each
accepted energy, a shift so close to its eigenvalue that the one step
converges the vector.  count(x), the number of eigenvalues at or below
x, is ``stebz`` in value mode on (-||T||_inf, x] with an absolute
tolerance above that width, which stops after its endpoint Sturm counts.
Where the window starts at the block's first eigenvalue (index 0), as
every block of ``solve_eigenvalues`` and ``convergence_study`` does,
count(a) is not taken: the disjoint discs inside (a, b) hold one
eigenvalue each, so count(b) = size already forces count(a) = 0.  Above
index 0, count(b) = low + size only bounds count(a) by low, and count(a)
is taken.  A block that fails any check is solved by index.

Richardson extrapolation over grids N, 2N+1, (4N+3) removes the two
leading error terms, the two smallest of the bulk h^2 and h^4 and, for
V0 > 0, the wall term h^q, q = sqrt(1 + 4 V0 / T): h^q and h^2 for
V0 / T < 3/4, h^2 and h^q for 3/4 <= V0 / T < 15/4 (h^2 twice at q = 2,
where the two make an h^2 log h term), and h^2 and h^4 beyond (Sidi,
Practical Extrapolation Methods, CUP 2003, on non-integer exponents and
log terms).  Level pressures come from the Hellmann-Feynman identity on
each grid: in the scaled coordinate x = L u the matrix is K / L^2 + V(u)
with V(u) independent of L, so the discrete level obeys

    -dE_h/dL = (2 / L) (E_h - sum_i V_i psi_i^2)

exactly for its normalized eigenvector psi.  For a unit eigenvector u of
the level's parity block that sum is sum_i V_i u_i^2 over the block's
nodes, so the block vector serves in place of psi.  These per-grid
pressures, on the fixed grids N = 4000 and 8001, are extrapolated with
the exponents of the eigenvalues; no step in L is taken.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DomainError, InvalidParameterError, ResourceLimitError
from .parameters import PTParameters, check_count, check_single_level, potential
from .semiclassical import qc_energy_numeric
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
# relative step in L of the Langer-shifted branch of numerical_pressure
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
        check_count("interior_points", self.interior_points, _MIN_GRID_POINTS)
        check_count("richardson_levels", self.richardson_levels, 1, 3)
        check_count("level_count", self.level_count, 1)
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
_PRESSURE_GRID = (4000, 8001)


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


@functools.cache
def _lapack():
    """The float64 LAPACK routines ``(dstebz, dstein, dgtsv)`` of
    scipy's f2py extension ``scipy.linalg._flapack``, loaded from its file
    without running ``scipy/linalg/__init__.py``, whose array-API setup
    would import numpy's f2py, random and testing packages.  Importing
    scipy first runs its distributor init, which on Windows registers the
    folder of the bundled OpenBLAS."""
    import scipy

    folder = os.path.join(scipy.__path__[0], "linalg")
    finder = importlib.machinery.FileFinder(
        folder,
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack is not in {folder}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dstebz, module.dstein, module.dgtsv


def _indexed(diagonal, off_diagonal, low: int, high: int):
    """Eigenvalues low..high of one block by bisection and their unit
    vectors by inverse iteration, from the LAPACK calls of scipy's
    ``eigh_tridiagonal(select="i")``."""
    stebz, stein, *_ = _lapack()
    # block order, which stein takes, then ascending order
    found, energies, block, split, info = stebz(
        diagonal, off_diagonal, 2, 0.0, 1.0, low + 1, high + 1, 0.0, "B"
    )
    if info:
        raise ConvergenceError(f"tridiagonal eigensolver failed: stebz info {info}")
    energies = energies[:found]
    vector, info = stein(diagonal, off_diagonal, energies, block, split)
    if info:
        raise ConvergenceError(f"tridiagonal eigensolver failed: stein info {info}")
    order = np.argsort(energies)
    return energies[order], vector[:, order]


def _interpolated(vectors, size: int, parity: int) -> np.ndarray:
    """Start vectors on the ``size`` nodes of a block of ``parity`` on a
    grid of 2 N + 1 nodes, carried linearly from the block vectors of the
    grid of N nodes before it.

    Coarse node i is fine node 2 i, so the fine nodes of even index take
    the coarse entries and the others the mean of their two neighbours,
    with 0 at the wall and, past the last coarse node, the entry the
    level's parity mirrors there: its own for the even block, 0 at the
    centre for the odd block.  An even block's entry on the centre node is
    1/sqrt(2) of the level's sample there, so a coarse one is scaled to
    the sample before the means are taken, and the fine one after."""
    # row g holds fine node g, so row 0 is the wall and row size + 1 the
    # mirror; each column, one level's vector, is contiguous for gtsv
    padded = np.empty((size + 2, vectors.shape[1]), order="F")
    padded[0] = 0.0
    padded[2 : size + 1 : 2] = vectors[: size // 2]
    if size % 2:
        padded[-1] = padded[-3] if parity == 0 else 0.0
    elif parity == 0:  # the coarse even block ends on the centre node
        padded[-2] *= math.sqrt(2.0)
    means = padded[1 : size + 1 : 2]
    np.add(padded[:size:2], padded[2 : size + 2 : 2], out=means)
    means *= 0.5
    if parity == 0:  # 2 N + 1 is odd, so the fine even block ends on the centre
        padded[-2] /= math.sqrt(2.0)
    return padded[1:-1]


def _refined(diagonal, off_diagonal, low: int, centres, initial, converge: bool):
    """Eigenvalues low, low + 1, ... of one block and their unit vectors,
    from inverse iteration at ``centres`` and the vectors' Rayleigh
    quotients, or None when the certificate of the module docstring fails.

    Each step is one ``gtsv`` solve of (T - centre) y = u per column, from
    the columns of ``initial``, which it overwrites, or from a ramp when it
    is None.  The block takes one step and then tries the certificate, at
    most three times; a failure of the third try returns None.  With
    ``converge``, a certified block's vectors take one more step, each at
    its certified energy, and keep the certified vector where that step
    meets a zero pivot.

    The disc radii bound the residuals' rounding by 4 eps (||D u||_2 +
    2 max|e_i| + |theta|), D the diagonal, and a window from the block's
    first eigenvalue (``low`` 0) takes no count at its lower fence, which
    its count at the upper fence implies; the module docstring gives both
    arguments."""
    stebz, _, gtsv = _lapack()
    magnitude = np.abs(off_diagonal)
    rows = np.abs(diagonal)
    rows[:-1] += magnitude
    rows[1:] += magnitude
    norm = rows.max()  # ||T||_inf, so -norm lies below every eigenvalue
    coupling = 2.0 * magnitude.max()  # bounds the 2-norm of T's off-diagonal part
    vector = initial
    if vector is None:  # one column per centre
        vector = np.tile(np.arange(1.0, diagonal.size + 1), (centres.size, 1)).T

    def iterate(shifts, converging=False):
        for j, shift in enumerate(shifts):
            *_, solved, info = gtsv(
                off_diagonal, diagonal - shift, off_diagonal, vector[:, j], overwrite_d=1
            )
            if info and converging:  # a zero pivot: the shift is an eigenvalue
                continue
            if info:
                raise ConvergenceError(f"tridiagonal eigensolver failed: gtsv info {info}")
            solved /= math.sqrt(solved @ solved)
            vector[:, j] = solved

    def count(x):
        # an abstol above the interval's width stops after the endpoint counts
        found, *_, info = stebz(diagonal, off_diagonal, 1, -norm, x, 0, 0, 2.0 * (x + norm), "B")
        if info:
            raise ConvergenceError(f"tridiagonal eigensolver failed: stebz info {info}")
        return found

    sums = diagonal.copy()  # row sums of the block
    sums[:-1] += off_diagonal
    sums[1:] += off_diagonal
    eps = np.finfo(float).eps

    def certified():
        # one contiguous column at a time, so that no temporary spans the block
        energies, radius = np.empty(centres.size), np.empty(centres.size)
        for j, column in enumerate(vector.T):
            energies[j] = sums @ (column * column) - off_diagonal @ np.square(np.diff(column))
            residual = diagonal * column
            scaled = math.sqrt(residual @ residual)  # ||D u||_2
            residual[:-1] += off_diagonal * column[1:]
            residual[1:] += off_diagonal * column[:-1]
            residual -= energies[j] * column
            radius[j] = math.sqrt(residual @ residual) + 4.0 * eps * (
                scaled + coupling + abs(energies[j])
            )
        lower, upper = energies - radius, energies + radius
        start, stop = energies[0] * (1.0 - 1e-3), energies[-1] * (1.0 + 1e-3)
        if not (-norm < start < lower[0] and upper[-1] < stop and np.all(upper[:-1] < lower[1:])):
            return None
        # distance from each energy to the nearest other disc or fence
        gap = np.minimum(
            energies - np.append(start, upper[:-1]), np.append(lower[1:], stop) - energies
        )
        if np.any(radius * radius > eps * norm / 16.0 * gap):
            return None
        if low and count(start) != low:
            return None
        if count(stop) != low + energies.size:
            return None
        return energies, vector

    for _ in range(3):
        iterate(centres)
        solution = certified()
        if solution is not None:
            if converge:
                iterate(solution[0], converging=True)
            return solution
    return None


def _fd_levels(
    params: PTParameters,
    n_points: int,
    first: int,
    last: int,
    vectors: bool = False,
    centres: np.ndarray | None = None,
    seeds: tuple = (None, None),
) -> tuple:
    """Energies of levels ``first``..``last`` on one grid, solved per
    parity block, with ``vectors`` their exact -dE_h/dL, else None, and
    per block the unit vectors of its wanted levels, or None for a block
    with none.

    Level l is eigenvalue (l - 1) // 2 of block (l - 1) % 2, and a block
    with no wanted level is skipped.  A unit block eigenvector u gives the
    full-grid sum_i V_i psi_i^2 as ``values @ u**2``.  ``centres``, the
    closed-form levels or the coarser grid's energies of the wanted levels,
    let each block take them from inverse iteration; the certificate alone
    judges them, and a block they do not certify, as every block without
    them, is solved by index.  ``seeds``, the block vectors this returned
    on the grid before by either route, start that iteration, else a ramp
    does; either way the block steps and tries its certificate at most
    three times.  For the pressures, first order in the vector, a
    certified block's vectors take one more step at their certified
    energies.
    """
    energies = np.empty(last - first + 1)
    pressures = np.empty_like(energies) if vectors else None
    solved = [None, None]
    blocks = _parity_blocks(params, n_points, last)
    for parity, (values, diagonal, off_diagonal) in enumerate(blocks):
        low, high = (first - parity) // 2, (last - 1 - parity) // 2
        if low > high:
            continue
        wanted = slice(2 * low + parity + 1 - first, None, 2)
        solution = None
        if centres is not None:
            initial = seeds[parity]
            if initial is not None:
                initial = _interpolated(initial, diagonal.size, parity)
            solution = _refined(diagonal, off_diagonal, low, centres[wanted], initial, vectors)
        if solution is None:
            solution = _indexed(diagonal, off_diagonal, low, high)
        energies[wanted], vector = solution
        solved[parity] = vector
        if vectors:
            pressures[wanted] = 2.0 * (energies[wanted] - values @ vector**2) / params.half_width
    return energies, pressures, tuple(solved)


def _grid_levels(
    params: PTParameters, sizes: tuple, first: int, last: int, vectors: bool
) -> tuple:
    """Energies, and with ``vectors`` pressures, else None, of levels
    ``first``..``last`` on each grid of ``sizes``, coarse first.

    The first grid is centred on the closed-form levels and each later
    grid on the energies of the grid before it; a block its centres do not
    certify is solved by index."""
    energies, pressures, seeds = [], [], (None, None)
    centres = levels(params, np.arange(first, last + 1)).energy_total
    for size in sizes:
        energy, pressure, seeds = _fd_levels(params, size, first, last, vectors, centres, seeds)
        energies.append(energy)
        pressures.append(pressure)
        centres = energy
    return energies, pressures


def _kinetic_scale(params: PTParameters) -> float:
    """T = hbar^2 alpha^2 / (2 m), computed apart from ``derive_scales`` so
    that a fault in the closed forms' T does not reach the checks.

    Raises :class:`DomainError` unless T is a normal float.
    """
    kinetic = (params.hbar * params.hbar) * (params.alpha * params.alpha) / (2.0 * params.mass)
    if not sys.float_info.min <= kinetic < math.inf:
        raise DomainError(
            f"kinetic scale T = hbar^2 alpha^2 / (2 m) = {kinetic!r} "
            "is outside the normal floating-point range"
        )
    return kinetic


def _wall_exponents(params: PTParameters) -> tuple:
    """Exponents of the two leading error terms of a level, in h.

    Near a wall V ~ V0 / (alpha d)^2 at distance d, so the level function
    goes as d^s with s (s - 1) = V0 / T, T = hbar^2 alpha^2 / (2 m), and
    the wall adds an error term h^q, q = 2 s - 1 = sqrt(1 + 4 V0 / T), to
    the bulk h^2 and h^4.  The two smallest of q, 2 and 4 lead: q is
    among them when q < 4, i.e. V0 / T < 15/4, and (2, 2) at the unit
    well's q = 2 removes its h^2 log h term; a box (V0 = 0) has no wall
    term.
    """
    kinetic = _kinetic_scale(params)
    if 0.0 < params.well_depth < 3.75 * kinetic:
        return tuple(sorted((math.sqrt(1.0 + 4.0 * (params.well_depth / kinetic)), 2, 4))[:2])
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
    columns = _grid_levels(params, grid.grid_sequence(), 1, grid.level_count, False)[0]
    eigenvalues, estimates = _richardson(columns, _wall_exponents(params))
    if np.any(eigenvalues <= 0.0) or np.any(np.diff(eigenvalues) <= 0.0):
        raise ConvergenceError(
            "extrapolated eigenvalues are not strictly increasing and positive; "
            "refine the grid"
        )
    return NumericalSpectrum(eigenvalues=eigenvalues, error_estimates=estimates)


def numerical_pressure(params: PTParameters, n: int, use_eigenvalues: bool = False) -> float:
    """Level pressure -dE_n/dL, computed apart from the closed-form pressure.

    By default the level is differenced centrally in L at relative steps
    1e-4 and half of it, and the two quotients are Richardson
    extrapolated.  The level is the Bohr-Sommerfeld root of the well
    deepened by T/4, plus T/4: Langer's shift (Phys. Rev. 51, 669 (1937))
    makes the quantization exact for this shape-invariant well (Cooper,
    Khare & Sukhatme, Phys. Rep. 251, 267 (1995)), and the root, from the
    tanh-sinh action and Newton's method, shares no derivation with
    ``spectra.levels``.  With ``use_eigenvalues`` the pressure is the
    Hellmann-Feynman value of the finite-difference level on the grids
    N = 4000 and 8001, extrapolated like the eigenvalues.
    """
    check_single_level(n)
    if use_eigenvalues:
        pressures = _grid_levels(params, _PRESSURE_GRID, n, n, True)[1]
        columns = [pressure[0] for pressure in pressures]
        return float(_richardson(columns, _wall_exponents(params))[0])

    length = params.half_width

    def level(delta: float) -> float:
        well = replace(params, half_width=length * (1.0 + delta))
        shift = _kinetic_scale(well) / 4.0
        return qc_energy_numeric(replace(well, well_depth=well.well_depth + shift), n) + shift

    def quotient(delta: float) -> float:
        return -(level(delta) - level(-delta)) / (2.0 * length * delta)

    quotients = [quotient(_DIFFERENCE_STEP), quotient(0.5 * _DIFFERENCE_STEP)]
    return float(_richardson(quotients, (2,))[0])


@dataclass(frozen=True, slots=True)
class ConvergenceReport:
    """Measured discretization orders of the raw (unextrapolated) scheme.

    ``errors[i, j]`` is |E_numeric - E_closed| for level j on the i-th
    grid in ascending order of size, whatever the order of the sizes
    given; ``slopes[j]`` is the fitted log-log slope of that error against
    the spacing h.  ``expected_order`` is the exponent of the leading error
    term that the slopes should approach: 2 for the second-order stencil,
    or the wall exponent sqrt(1 + 4 V0 / T) when 0 < V0 / T < 3/4.
    """

    errors: np.ndarray
    slopes: np.ndarray
    expected_order: float


def convergence_study(
    params: PTParameters, grid_sizes: list[int], level_count: int
) -> ConvergenceReport:
    """Fit per-level convergence slopes over a sequence of grids, each
    centred on the closed-form levels, which the certificate alone judges."""
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
        numeric = _fd_levels(params, size, 1, level_count, centres=closed)[0]
        spacings.append(2.0 * params.half_width / (size + 1))
        errors.append(np.abs(numeric - closed))
    error_matrix = np.array(errors)
    slopes = np.polyfit(np.log(np.array(spacings)), np.log(error_matrix), 1)[0]
    return ConvergenceReport(
        errors=error_matrix,
        slopes=slopes,
        expected_order=float(min(_wall_exponents(params))),
    )
