import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptoscillator import (
    CROSSOVER,
    FP_DOMINATED,
    HO_DOMINATED,
    DomainError,
    InvalidParameterError,
    PTParameters,
    energy_level,
    numerical_pressure,
    pressure_level,
    regime_ratio,
    spectrum_table,
)

positive = st.floats(min_value=1e-2, max_value=1e2, allow_nan=False, allow_infinity=False)


class TestEnergyLevel:
    def test_unit_well_ground_state(self, unit_well):
        level = energy_level(unit_well, 1)
        assert level == (0.5, 0.25, 0.75)

    def test_unit_well_third_level(self, unit_well):
        level = energy_level(unit_well, 3)
        assert level == (4.5, 1.25, 5.75)

    def test_box_is_pure_quadratic(self):
        params = PTParameters(mass=1.0, well_depth=0.0, half_width=2.0)
        kinetic = derive_kinetic(params)
        level = energy_level(params, 2)
        assert level.ho == 0.0
        assert level.total == 4.0 * kinetic

    def test_rejects_bad_quantum_number(self, unit_well):
        for bad in (0, -3, 1.5, True):
            with pytest.raises(InvalidParameterError):
                energy_level(unit_well, bad)


def derive_kinetic(params: PTParameters) -> float:
    alpha = math.pi / (2.0 * params.half_width)
    return params.hbar**2 * alpha**2 / (2.0 * params.mass)


class TestNonFiniteTotals:
    def test_overflowing_levels_are_domain_errors(self):
        # T is about 1.2e300 here: n^2 T overflows near n = 1.2e4, and the
        # pressure parts scale by 1/L = 1e150 (inf - inf for the well).
        narrow_box = PTParameters(1.0, 0.0, 1e-150)
        narrow_deep = PTParameters(1.0, 1e300, 1e-150)
        assert math.isfinite(energy_level(narrow_deep, 1).total)
        with pytest.raises(DomainError):
            energy_level(narrow_box, 20000)
        with pytest.raises(DomainError):
            pressure_level(narrow_box, 1)
        with pytest.raises(DomainError):
            pressure_level(narrow_deep, 1)


class TestPressureLevel:
    def test_unit_well_ground_state(self, unit_well):
        pressure = pressure_level(unit_well, 1)
        assert pressure.fp == pytest.approx(2 / math.pi, rel=1e-14)
        assert pressure.ho == pytest.approx(0.25 / math.pi, rel=1e-14)
        assert pressure.total == pytest.approx(2.25 / math.pi, rel=1e-14)

    def test_box_equation_of_state_is_exact(self, box):
        # L = 1, so P = 2 E / L holds bit for bit.
        for n in (1, 2, 5):
            energy = energy_level(box, n)
            pressure = pressure_level(box, n)
            assert pressure.total == 2.0 * energy.total
            assert pressure.total * box.half_width / energy.total == 2.0
        assert pressure_level(box, 1).total == pytest.approx(math.pi**2 / 4, rel=1e-15)

    def test_wide_well_near_linear_equation_of_state(self, wide_well):
        energy = energy_level(wide_well, 1)
        pressure = pressure_level(wide_well, 1)
        assert pressure.total == pytest.approx(energy.total / wide_well.half_width, rel=2e-2)

    def test_matches_width_derivative(self, unit_well, wide_well, shallow_well, box):
        # Hellmann-Feynman: closed-form pressure equals -dE/dL.
        for params in (unit_well, wide_well, shallow_well, box):
            for n in range(1, 21):
                numeric = numerical_pressure(params, n, relative_step=1e-4)
                closed = pressure_level(params, n).total
                assert closed == pytest.approx(numeric, rel=1e-8)

    @given(mass=positive, depth=positive, half_width=positive, n=st.integers(1, 40))
    @settings(max_examples=100)
    def test_components_positive(self, mass, depth, half_width, n):
        pressure = pressure_level(PTParameters(mass, depth, half_width), n)
        assert pressure.fp > 0.0
        assert pressure.ho >= 0.0


class TestRegimeRatio:
    def test_unit_well_threshold_case(self, unit_well):
        # eta_1 = 1 / (1 * 0.5) = 2, on the box-dominated threshold.
        ratio = regime_ratio(unit_well, 1)
        assert ratio.eta == 2.0
        assert ratio.label == FP_DOMINATED

    def test_unit_well_high_level(self, unit_well):
        ratio = regime_ratio(unit_well, 10)
        assert ratio.eta == pytest.approx(100 / 9.5, rel=1e-15)
        assert ratio.label == FP_DOMINATED

    def test_wide_well_ground_state_is_oscillator_like(self, wide_well):
        ratio = regime_ratio(wide_well, 1)
        assert ratio.eta == pytest.approx(0.010050126, rel=1e-6)
        assert ratio.label == HO_DOMINATED

    def test_crossover_window(self):
        # lambda = 1: eta_2 = 4 / 1.5 = 8/3 > 2 but eta with lambda = 4
        # at n = 3: 9 / (4 * 2.5) = 0.9 lands in the window.
        params = PTParameters(mass=1.0, well_depth=3.0, half_width=math.pi / 2)
        assert derive_lambda(params) == pytest.approx(4.0, rel=1e-14)
        ratio = regime_ratio(params, 3)
        assert ratio.eta == pytest.approx(0.9, rel=1e-13)
        assert ratio.label == CROSSOVER

    def test_box_sentinel(self, box):
        ratio = regime_ratio(box, 4)
        assert ratio.eta == math.inf
        assert ratio.label == FP_DOMINATED

    @given(depth=positive, half_width=positive, n=st.integers(1, 60))
    @settings(max_examples=150)
    def test_ratio_identity(self, depth, half_width, n):
        # eta_n * lambda / n - 1 == 1 / (2n - 1), exactly in algebra.
        params = PTParameters(1.0, depth, half_width)
        lam = derive_lambda(params)
        eta = regime_ratio(params, n).eta
        assert abs(eta * lam / n - 1.0) == pytest.approx(1.0 / (2 * n - 1), rel=1e-11)


def derive_lambda(params: PTParameters) -> float:
    ratio = 4.0 * params.well_depth / derive_kinetic(params)
    return ratio / (1.0 + math.sqrt(1.0 + ratio))


class TestSpectrumTable:
    def test_single_row_consistency(self, unit_well):
        table = spectrum_table(unit_well, 1)
        row = table.rows[0]
        energy = energy_level(unit_well, 1)
        pressure = pressure_level(unit_well, 1)
        assert (row.energy_fp, row.energy_ho, row.energy_total) == tuple(energy)
        assert (row.pressure_fp, row.pressure_ho, row.pressure_total) == tuple(pressure)
        assert row.regime_ratio == regime_ratio(unit_well, 1).eta

    def test_unit_well_energies(self, unit_well):
        table = spectrum_table(unit_well, 3)
        assert [row.energy_total for row in table.rows] == [0.75, 2.75, 5.75]

    def test_rejects_out_of_range_n_max(self, unit_well):
        with pytest.raises(InvalidParameterError):
            spectrum_table(unit_well, 0)
        with pytest.raises(InvalidParameterError):
            spectrum_table(unit_well, 10**6 + 1)

    @given(mass=positive, depth=st.one_of(st.just(0.0), positive), half_width=positive)
    @settings(max_examples=100)
    def test_energies_strictly_increasing(self, mass, depth, half_width):
        table = spectrum_table(PTParameters(mass, depth, half_width), 50)
        energies = [row.energy_total for row in table.rows]
        assert all(b > a for a, b in zip(energies, energies[1:]))
        assert all(row.energy_total > 0 for row in table.rows)

    @pytest.mark.parametrize("lam_target", [0.5, 1.0, 5.0, 40.0])
    def test_box_oscillator_balance_flips_at_most_once(self, lam_target):
        kinetic = 0.5  # L = pi/2
        depth = kinetic * lam_target * (lam_target + 2) / 4
        table = spectrum_table(PTParameters(1.0, depth, math.pi / 2), 200)
        signs = [row.energy_fp - row.energy_ho > 0 for row in table.rows]
        assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) <= 1
