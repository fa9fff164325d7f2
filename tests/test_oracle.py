import math
from dataclasses import replace

import numpy as np
import pytest

from ptoscillator import (
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

    @pytest.mark.parametrize("lam_target", [0.01, 1.0, 100.0])
    def test_mutual_validation_across_regimes(self, lam_target):
        kinetic = 0.5  # L = pi/2
        depth = kinetic * lam_target * (lam_target + 2) / 4.0
        params = PTParameters(mass=1.0, well_depth=depth, half_width=math.pi / 2)
        spectrum = solve_eigenvalues(params, GridSpec(4000, richardson_levels=3, level_count=10))
        expected = closed_energies(params, 10)
        assert np.max(np.abs(spectrum.eigenvalues - expected) / expected) <= 1e-6

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
        numeric = numerical_pressure(unit_well, 1, relative_step=1e-4)
        assert numeric == pytest.approx(2.25 / math.pi, rel=1e-8)

    def test_box_homogeneous_spectrum(self):
        params = PTParameters(mass=1.0, well_depth=0.0, half_width=1.0)
        numeric = numerical_pressure(params, 2, relative_step=1e-4)
        expected = 2.0 * levels(params, 2).energy_total / params.half_width
        assert numeric == pytest.approx(expected, rel=1e-10)

    def test_wide_well_equation_of_state(self, wide_well):
        numeric = numerical_pressure(wide_well, 1)
        energy = levels(wide_well, 1).energy_total
        s_eff = numeric * wide_well.half_width / energy
        assert s_eff == pytest.approx(1.005, rel=1e-3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_eigenvalue_mode(self, unit_well, n):
        numeric = numerical_pressure(unit_well, n, relative_step=1e-4, use_eigenvalues=True)
        closed = levels(unit_well, n).pressure_total
        assert numeric == pytest.approx(closed, rel=1e-5)

    def test_eigenvalue_mode_box(self):
        params = PTParameters(mass=1.0, well_depth=0.0, half_width=1.0)
        numeric = numerical_pressure(
            params, 1, use_eigenvalues=True, grid=GridSpec(1000, richardson_levels=2, level_count=1)
        )
        assert numeric == pytest.approx(levels(params, 1).pressure_total, rel=1e-5)

    @pytest.mark.parametrize("well", ["unit_well", "wide_well", "shallow_well", "box"])
    def test_eigenvalue_mode_is_grid_derivative(self, request, well):
        # Without Richardson the eigenvalue-mode pressure is exactly -dE_h/dL
        # of the level on the N = 1000 grid, so it must match central
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
            numeric = numerical_pressure(params, n, use_eigenvalues=True, grid=grid)
            assert numeric == pytest.approx(differenced, rel=2e-7)

    @pytest.mark.parametrize("well", ["unit_well", "wide_well", "shallow_well", "box"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_eigenvalue_mode_accuracy(self, request, well, n):
        # Default grid; the measured worst relative error is 2.4e-7.
        params = request.getfixturevalue(well)
        numeric = numerical_pressure(params, n, use_eigenvalues=True)
        assert numeric == pytest.approx(levels(params, n).pressure_total, rel=1e-6)

    @pytest.mark.parametrize("step", [1e-8, 0.5, 0.0])
    def test_step_bounds(self, unit_well, step):
        with pytest.raises(InvalidParameterError):
            numerical_pressure(unit_well, 1, relative_step=step)

    def test_level_count_guard_in_eigenvalue_mode(self, unit_well):
        with pytest.raises(InvalidParameterError):
            numerical_pressure(
                unit_well,
                5,
                use_eigenvalues=True,
                grid=GridSpec(1000, richardson_levels=2, level_count=2),
            )


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
