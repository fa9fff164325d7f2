import math

import mpmath as mp
import pytest

from ptoscillator import (
    DomainError,
    InvalidParameterError,
    PTParameters,
    derive_scales,
    energy_level,
    perturbed_energy,
    potential,
    potential_series_eval,
)
from ptoscillator.perturbation import TAN_SQUARED_COEFFICIENTS

mp.mp.dps = 50


def wide_params(lam_tilde: float, depth: float = 0.5) -> PTParameters:
    kinetic = 4.0 * depth / lam_tilde**2
    half_width = math.pi / math.sqrt(8.0 * kinetic)
    return PTParameters(mass=1.0, well_depth=depth, half_width=half_width)


class TestPotentialSeriesEval:
    def test_coefficients_match_taylor_expansion(self):
        # mpmath Taylor coefficients of tan(y)^2 at even orders 2, 4, 6.
        taylor = mp.taylor(lambda y: mp.tan(y) ** 2, 0, 6)
        for k, coeff in enumerate(TAN_SQUARED_COEFFICIENTS, start=1):
            assert coeff == pytest.approx(float(taylor[2 * k]), abs=1e-14)
        assert TAN_SQUARED_COEFFICIENTS[1] / TAN_SQUARED_COEFFICIENTS[0] == pytest.approx(
            2.0 / 3.0, abs=1e-15
        )

    def test_truncation_guard(self, unit_well):
        with pytest.raises(InvalidParameterError):
            potential_series_eval(unit_well, 0.1, 4)

    def test_zero_at_origin(self, unit_well):
        assert potential_series_eval(unit_well, 0.0, 2) == 0.0

    def test_two_term_value(self):
        # alpha x = 0.1 with V0 = 1: 0.01 + (2/3) 1e-4 vs tan^2(0.1).
        params = PTParameters(mass=1.0, well_depth=1.0, half_width=math.pi / 2)
        value = potential_series_eval(params, 0.1, 2)
        assert value == pytest.approx(0.01 + (2.0 / 3.0) * 1e-4, rel=1e-14)
        truth = math.tan(0.1) ** 2
        # next omitted term is (17/45) y^6
        assert abs(value - truth) == pytest.approx((17.0 / 45.0) * 0.1**6, rel=0.05)

    def test_three_term_relative_error_scale(self):
        params = PTParameters(mass=1.0, well_depth=1.0, half_width=math.pi / 2)
        y = 0.5
        value = potential_series_eval(params, y, 3)
        truth = math.tan(y) ** 2
        rel_error = abs(value - truth) / truth
        # next omitted term is (62/315) y^8, i.e. relative ~ y^6 scale
        assert 0.05 * y**6 < rel_error < 0.5 * y**6

    def test_leading_term_is_harmonic_potential(self, wide_well):
        # V0 alpha^2 x^2 == (1/2) m w~^2 x^2 with hbar w~ = 2 sqrt(V0 T).
        scales = derive_scales(wide_well)
        hw_tilde = 2.0 * math.sqrt(wide_well.well_depth * scales.kinetic_scale)
        omega = hw_tilde / wide_well.hbar
        x = 7.3
        harmonic = 0.5 * wide_well.mass * omega**2 * x**2
        assert potential_series_eval(wide_well, x, 1) == pytest.approx(harmonic, rel=1e-13)

    def test_tracks_full_potential_in_the_well_bottom(self, unit_well):
        x = 0.3
        assert potential_series_eval(unit_well, x, 3) == pytest.approx(
            potential(unit_well, x), rel=1e-3
        )

    def test_domain_guard(self, unit_well):
        with pytest.raises(DomainError):
            potential_series_eval(unit_well, unit_well.half_width, 2)


class TestPerturbedEnergy:
    def test_wide_well_ground_state(self, wide_well):
        # harmonic 0.005, quartic T/2 = 2.5e-5; exact E_1 = 5.0250625e-3.
        result = perturbed_energy(wide_well, 1)
        assert result.harmonic == pytest.approx(0.005, rel=1e-12)
        assert result.quartic == pytest.approx(2.5e-5, rel=1e-12)
        assert result.total == pytest.approx(5.025e-3, rel=1e-12)
        exact = energy_level(wide_well, 1).total
        assert exact - result.total == pytest.approx(6.25e-8, rel=1e-4)

    def test_wide_well_second_level(self, wide_well):
        result = perturbed_energy(wide_well, 2)
        assert result.quartic == pytest.approx(1.25e-4, rel=1e-12)
        exact = energy_level(wide_well, 2).total
        assert exact - result.total == pytest.approx(1.875e-7, rel=1e-4)

    def test_correction_negligible_for_deep_wells(self):
        # ratio ~ sqrt(T / V0) / 2, so each 100x in depth gains 10x
        half_width = 3.0
        ratios = []
        for depth in (1.0, 1e4, 1e8):
            result = perturbed_energy(PTParameters(1.0, depth, half_width), 1)
            ratios.append(result.quartic / result.harmonic)
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] < 1e-4

    def test_quadratic_coefficient_equals_kinetic_scale(self, wide_well):
        # totals are hw~ (n - 1/2) + T (n^2 - n + 1/2): quadratic weight T.
        import numpy as np

        scales = derive_scales(wide_well)
        ns = np.arange(1, 11, dtype=float)
        totals = np.array([perturbed_energy(wide_well, int(n)).total for n in ns])
        coeffs = np.polyfit(ns, totals, 2)
        assert coeffs[0] == pytest.approx(scales.kinetic_scale, abs=1e-10)

    @pytest.mark.parametrize("lam_tilde", [100.0, 300.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_residual_is_next_frequency_correction(self, lam_tilde, n):
        params = wide_params(lam_tilde)
        scales = derive_scales(params)
        hw_tilde = 2.0 * math.sqrt(params.well_depth * scales.kinetic_scale)
        exact = energy_level(params, n).total
        predicted_residual = scales.kinetic_scale**2 / (2.0 * hw_tilde) * (n - 0.5)
        ratio = (exact - perturbed_energy(params, n).total) / predicted_residual
        assert 0.9 <= ratio <= 1.1

    def test_rejects_bad_quantum_number(self, wide_well):
        with pytest.raises(InvalidParameterError):
            perturbed_energy(wide_well, -2)
