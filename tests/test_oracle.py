import math
from dataclasses import replace

import numpy as np
import pytest

from ptoscillator import (
    ConvergenceError,
    DomainError,
    GridSpec,
    InvalidParameterError,
    PTParameters,
    ResourceLimitError,
    convergence_study,
    derive_scales,
    levels,
    numerical_pressure,
    solve_eigenvalues,
)
from ptoscillator import oracle


def closed_energies(params: PTParameters, count: int) -> np.ndarray:
    return levels(params, np.arange(1, count + 1)).energy_total


class TestGridSpec:
    def test_refinement_sequence_halves_spacing(self):
        grid = GridSpec(interior_points=100, richardson_levels=3, level_count=2)
        assert grid.grid_sequence() == (100, 201, 403)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(interior_points=63),
            dict(interior_points=100, richardson_levels=0),
            dict(interior_points=100, richardson_levels=4),
            dict(interior_points=100, level_count=0),
        ],
    )
    def test_invariants(self, kwargs):
        with pytest.raises(InvalidParameterError):
            GridSpec(**kwargs)

    def test_finest_grid_beyond_resource_limit(self):
        # 65536 -> 131073 -> 262147, three points past MAX_GRID_POINTS.
        with pytest.raises(ResourceLimitError):
            GridSpec(65536, richardson_levels=3)
        assert GridSpec(65535, richardson_levels=3).grid_sequence()[-1] == 262_143


class TestSolveEigenvalues:
    def test_box_matches_analytic_levels(self):
        # T n^2 = (pi^2 / 8) n^2 for L = 1.
        params = PTParameters(mass=1.0, well_depth=0.0, half_width=1.0)
        spectrum = solve_eigenvalues(params, GridSpec(2000, richardson_levels=2, level_count=3))
        expected = (math.pi**2 / 8.0) * np.arange(1, 4) ** 2
        assert np.max(np.abs(spectrum.eigenvalues - expected) / expected) <= 1e-5

    def test_unit_well_mutual_validation(self, unit_well):
        spectrum = solve_eigenvalues(unit_well, GridSpec(4000, richardson_levels=2, level_count=3))
        expected = np.array([0.75, 2.75, 5.75])
        assert np.max(np.abs(spectrum.eigenvalues - expected) / expected) <= 1e-6

    # V0 / T = lambda (lambda + 2) / 4 runs from 2e-3 to 10, plus 2550.  The
    # wall adds an error term h^q, q = sqrt(1 + 4 V0 / T), which leads the
    # bulk h^2 for V0 / T < 3/4; the measured worst error at these points
    # with V0 / T <= 10 is 1.3e-8, and 1.8e-6 with h^2/h^4 weights.
    @pytest.mark.parametrize("lam_target", [0.004, 0.01, 0.04, 0.1, 0.3, 1.0, 2.3, 5.4, 100.0])
    def test_mutual_validation_across_regimes(self, lam_target):
        kinetic = 0.5  # L = pi/2
        depth = kinetic * lam_target * (lam_target + 2) / 4.0
        params = PTParameters(mass=1.0, well_depth=depth, half_width=math.pi / 2)
        spectrum = solve_eigenvalues(params, GridSpec(4000, richardson_levels=3, level_count=10))
        expected = closed_energies(params, 10)
        assert np.max(np.abs(spectrum.eigenvalues - expected) / expected) <= 1e-6

    def test_wall_exponent_rule(self, request):
        # the oracle solves the indicial equation itself; 2 s - 1 = 1 + lambda
        for well in ("unit_well", "wide_well", "box"):
            assert oracle._wall_exponents(request.getfixturevalue(well)) == (2, 4)
        shallow = request.getfixturevalue("shallow_well")
        exponent, bulk = oracle._wall_exponents(shallow)
        assert exponent == pytest.approx(1.0 + derive_scales(shallow).lambda_exact, rel=1e-14)
        assert bulk == 2

    def test_extrapolation_beats_raw_solve(self, unit_well):
        expected = closed_energies(unit_well, 3)
        raw = solve_eigenvalues(unit_well, GridSpec(1000, richardson_levels=1, level_count=3))
        extrapolated = solve_eigenvalues(
            unit_well, GridSpec(1000, richardson_levels=2, level_count=3)
        )
        raw_err = np.abs(raw.eigenvalues - expected)
        ext_err = np.abs(extrapolated.eigenvalues - expected)
        assert np.all(raw_err / ext_err >= 4.0)
        assert np.all(np.isnan(raw.error_estimates))
        assert np.all(extrapolated.error_estimates > 0.0)

    def test_eigenvalues_simple_and_positive(self, wide_well):
        spectrum = solve_eigenvalues(wide_well, GridSpec(2000, richardson_levels=1, level_count=8))
        assert np.all(spectrum.eigenvalues > 0.0)
        assert np.all(np.diff(spectrum.eigenvalues) > 0.0)

    def test_grid_beyond_resource_limit(self, unit_well):
        with pytest.raises(ResourceLimitError):
            solve_eigenvalues(unit_well, GridSpec(200_000, richardson_levels=3, level_count=1))


class TestNumericalPressure:
    def test_unit_well_matches_closed_form(self, unit_well):
        numeric = numerical_pressure(unit_well, 1)
        assert numeric == pytest.approx(2.25 / math.pi, rel=1e-8)

    def test_box_homogeneous_spectrum(self):
        params = PTParameters(mass=1.0, well_depth=0.0, half_width=1.0)
        numeric = numerical_pressure(params, 2)
        expected = 2.0 * levels(params, 2).energy_total / params.half_width
        assert numeric == pytest.approx(expected, rel=1e-10)

    def test_wide_well_equation_of_state(self, wide_well):
        numeric = numerical_pressure(wide_well, 1)
        energy = levels(wide_well, 1).energy_total
        s_eff = numeric * wide_well.half_width / energy
        assert s_eff == pytest.approx(1.005, rel=1e-3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_eigenvalue_mode(self, unit_well, n):
        numeric = numerical_pressure(unit_well, n, use_eigenvalues=True)
        closed = levels(unit_well, n).pressure_total
        assert numeric == pytest.approx(closed, rel=1e-5)

    def test_eigenvalue_mode_box(self):
        params = PTParameters(mass=1.0, well_depth=0.0, half_width=1.0)
        numeric = numerical_pressure(params, 1, use_eigenvalues=True)
        assert numeric == pytest.approx(levels(params, 1).pressure_total, rel=1e-5)

    @pytest.mark.parametrize("well", ["unit_well", "wide_well", "shallow_well", "box"])
    def test_eigenvalue_mode_is_grid_derivative(self, request, well):
        # The per-grid Hellmann-Feynman pressure is exactly -dE_h/dL of the
        # level on the N = 1000 grid, so it must match central
        # differences in L of that same raw eigenvalue (steps 1e-2 and 5e-3,
        # extrapolated); the measured worst gap is 3.4e-8 (wide well), the
        # rounding noise of the differenced eigenvalues.
        params = request.getfixturevalue(well)
        length = params.half_width
        for n in range(1, 6):
            grid = GridSpec(1000, richardson_levels=1, level_count=n)

            def quotient(delta: float) -> float:
                upper = solve_eigenvalues(replace(params, half_width=length * (1 + delta)), grid)
                lower = solve_eigenvalues(replace(params, half_width=length * (1 - delta)), grid)
                return -(upper.eigenvalues[n - 1] - lower.eigenvalues[n - 1]) / (2 * length * delta)

            differenced = (4.0 * quotient(5e-3) - quotient(1e-2)) / 3.0
            numeric = oracle._fd_levels(params, 1000, n, n, vectors=True)[1][0]
            assert numeric == pytest.approx(differenced, rel=2e-7)

    @pytest.mark.parametrize("well", ["unit_well", "wide_well", "shallow_well", "box"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_eigenvalue_mode_accuracy(self, request, well, n):
        # Fixed grid; the measured worst relative error is 5.6e-7 (shallow well).
        params = request.getfixturevalue(well)
        numeric = numerical_pressure(params, n, use_eigenvalues=True)
        assert numeric == pytest.approx(levels(params, n).pressure_total, rel=1e-6)

    def test_level_above_fixed_grid_is_invalid(self, unit_well):
        # the coarser fixed grid has 4000 nodes
        with pytest.raises(InvalidParameterError, match="cannot request 4001"):
            numerical_pressure(unit_well, 4001, use_eigenvalues=True)


WELLS = ["unit_well", "wide_well", "shallow_well", "box"]


def full_matrix(params: PTParameters, n_points: int):
    """Potential, diagonal and off-diagonal of the finite-difference
    Hamiltonian on all ``n_points`` interior nodes, built here from the
    stencil alone."""
    spacing = 2.0 * params.half_width / (n_points + 1)
    nodes = spacing * (np.arange(1, n_points + 1) - 0.5 * (n_points + 1))
    kinetic = params.hbar**2 / (2.0 * params.mass * spacing**2)
    values = params.well_depth * np.tan(params.alpha * nodes) ** 2
    return values, 2.0 * kinetic + values, np.full(n_points - 1, -kinetic)


def fold(values, diagonal, off_diagonal):
    """Even and odd blocks sliced from the full matrix by the parity fold."""
    half = len(diagonal) // 2
    if len(diagonal) % 2:
        coupling = off_diagonal[:half].copy()
        coupling[-1] *= math.sqrt(2.0)
        even = (values[: half + 1], diagonal[: half + 1], coupling)
        return even, (values[:half], diagonal[:half], off_diagonal[: half - 1])
    even_diagonal = diagonal[:half].copy()
    odd_diagonal = diagonal[:half].copy()
    even_diagonal[-1] += off_diagonal[half - 1]
    odd_diagonal[-1] -= off_diagonal[half - 1]
    inner = off_diagonal[: half - 1]
    return (values[:half], even_diagonal, inner), (values[:half], odd_diagonal, inner)


def bisection_floor(diagonal, off_diagonal) -> float:
    """Twice the default absolute tolerance eps * ||T||_1 of LAPACK's
    bisection, which a block solve and a full-matrix solve each meet."""
    magnitude = np.abs(np.concatenate(([0.0], off_diagonal, [0.0])))
    return 2.0 * np.finfo(float).eps * np.max(np.abs(diagonal) + magnitude[:-1] + magnitude[1:])


class TestParityFold:
    @pytest.mark.parametrize("well", WELLS)
    @pytest.mark.parametrize("n_points", [64, 65, 4000, 4001])
    def test_blocks_equal_fold_of_full_matrix(self, request, well, n_points):
        params = request.getfixturevalue(well)
        values, diagonal, off_diagonal = full_matrix(params, n_points)
        assert np.array_equal(values, values[::-1])
        blocks = oracle._parity_blocks(params, n_points, 1)
        for block, expected in zip(blocks, fold(values, diagonal, off_diagonal)):
            for part, want in zip(block, expected):
                assert np.array_equal(part, want)

    # The even/odd blocks against one solve of the full matrix.
    @pytest.mark.parametrize("well", WELLS)
    @pytest.mark.parametrize("n_points", [64, 65])
    @pytest.mark.parametrize("count", [1, 5, 8, "all"])
    def test_eigenvalues_match_full_matrix(self, request, well, n_points, count):
        from scipy.linalg import eigh_tridiagonal

        params = request.getfixturevalue(well)
        count = n_points if count == "all" else count
        _, diagonal, off_diagonal = full_matrix(params, n_points)
        full = eigh_tridiagonal(
            diagonal, off_diagonal, select="i", select_range=(0, count - 1), eigvals_only=True
        )
        folded = oracle._fd_levels(params, n_points, 1, count)[0]
        assert folded.shape == (count,)
        assert np.max(np.abs(folded - full)) <= bisection_floor(diagonal, off_diagonal)

    @pytest.mark.parametrize("well", WELLS)
    @pytest.mark.parametrize("n_points", [64, 65])
    def test_pressures_match_full_eigenvector(self, request, well, n_points):
        from scipy.linalg import eigh_tridiagonal

        params = request.getfixturevalue(well)
        values, diagonal, off_diagonal = full_matrix(params, n_points)
        for n in range(1, 6):
            energy, vector = eigh_tridiagonal(
                diagonal, off_diagonal, select="i", select_range=(n - 1, n - 1)
            )
            full = 2.0 * (energy[0] - values @ vector[:, 0] ** 2) / params.half_width
            folded = oracle._fd_levels(params, n_points, n, n, vectors=True)[1][0]
            assert folded == pytest.approx(full, rel=1e-6)

    # Windows that do not start at level 1, solved with and without
    # eigenvectors, against the full matrix: energies within the bisection
    # floor, pressures from the full eigenvectors.
    @pytest.mark.parametrize("well", WELLS)
    @pytest.mark.parametrize("n_points", [64, 65])
    @pytest.mark.parametrize("first, last", [(1, 1), (2, 2), (3, 7), (4, 8)])
    def test_level_windows_match_full_matrix(self, request, well, n_points, first, last):
        from scipy.linalg import eigh_tridiagonal

        params = request.getfixturevalue(well)
        values, diagonal, off_diagonal = full_matrix(params, n_points)
        energy, vector = eigh_tridiagonal(
            diagonal, off_diagonal, select="i", select_range=(first - 1, last - 1)
        )
        full = 2.0 * (energy - values @ vector**2) / params.half_width
        energies, pressures = oracle._fd_levels(params, n_points, first, last, vectors=True)
        alone, none = oracle._fd_levels(params, n_points, first, last)
        assert none is None
        assert np.array_equal(alone, energies)
        assert energies.shape == pressures.shape == (last - first + 1,)
        assert np.max(np.abs(energies - energy)) <= bisection_floor(diagonal, off_diagonal)
        np.testing.assert_allclose(pressures, full, rtol=1e-6)


class TestConvergenceStudy:
    def test_unit_well_is_second_order(self, unit_well):
        report = convergence_study(unit_well, [500, 1000, 2000], level_count=3)
        assert np.all(np.abs(report.slopes - 2.0) <= 0.2)
        assert report.errors.shape == (3, 3)

    def test_box_is_second_order(self):
        params = PTParameters(mass=1.0, well_depth=0.0, half_width=1.0)
        report = convergence_study(params, [500, 1000, 2000], level_count=3)
        assert np.all(np.abs(report.slopes - 2.0) <= 0.2)

    def test_grid_ordering_normalized(self, unit_well):
        report = convergence_study(unit_well, [2000, 500, 1000], level_count=1)
        assert report.grid_sizes == (500, 1000, 2000)
        assert report.spacings[0] > report.spacings[-1]

    def test_requires_two_grids(self, unit_well):
        with pytest.raises(InvalidParameterError):
            convergence_study(unit_well, [1000], level_count=2)

    def test_requires_minimum_size(self, unit_well):
        with pytest.raises(InvalidParameterError):
            convergence_study(unit_well, [32, 1000], level_count=2)

    def test_grid_beyond_resource_limit(self, unit_well):
        with pytest.raises(ResourceLimitError):
            convergence_study(unit_well, [64, 300_000], level_count=1)

    def test_duplicate_sizes_rejected(self, unit_well):
        with pytest.raises(InvalidParameterError, match="distinct"):
            convergence_study(unit_well, [64, 64], level_count=1)

    def test_requires_a_level(self, unit_well):
        with pytest.raises(InvalidParameterError):
            convergence_study(unit_well, [500, 1000], level_count=0)


class TestNonFiniteHamiltonian:
    # kinetic scale hbar^2 / (2 m h^2) overflows to inf
    params = PTParameters(mass=1e-300, well_depth=1.0, half_width=1e-5)

    def test_eigensolve_is_domain_error(self):
        with pytest.raises(DomainError):
            solve_eigenvalues(self.params, GridSpec(64))

    def test_pressure_is_domain_error(self):
        with pytest.raises(DomainError):
            numerical_pressure(self.params, 1, use_eigenvalues=True)


class TestEigensolverFailure:
    # scipy.linalg is imported when the solver runs, so patching the
    # module attribute reaches the call
    @pytest.fixture(autouse=True)
    def failing_eigensolver(self, monkeypatch):
        import scipy.linalg

        def fail(*args, **kwargs):
            raise scipy.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)

    def test_eigensolve_is_convergence_error(self, unit_well):
        with pytest.raises(ConvergenceError, match="eigensolver failed"):
            solve_eigenvalues(unit_well, GridSpec(64))

    def test_pressure_is_convergence_error(self, unit_well):
        with pytest.raises(ConvergenceError, match="eigensolver failed"):
            numerical_pressure(unit_well, 1, use_eigenvalues=True)


class TestNonFiniteResult:
    # A solver that returns NaN must not pass the positivity and ordering
    # checks, where every comparison with NaN is False, whether one, two
    # or three grids are extrapolated; the pressure extrapolates two grids
    # through the same routine.
    @pytest.fixture(autouse=True)
    def nan_solver(self, monkeypatch):
        def solve(params, n_points, first, last, vectors=False):
            nan = np.full(last - first + 1, np.nan)
            return nan, (nan.copy() if vectors else None)

        monkeypatch.setattr(oracle, "_fd_levels", solve)

    def test_eigensolve_is_convergence_error(self, unit_well):
        for richardson_levels in (1, 2, 3):
            with pytest.raises(ConvergenceError, match="not finite"):
                solve_eigenvalues(unit_well, GridSpec(64, richardson_levels, level_count=3))

    def test_pressure_is_convergence_error(self, unit_well):
        with pytest.raises(ConvergenceError, match="not finite"):
            numerical_pressure(unit_well, 1, use_eigenvalues=True)
