import math

import pytest

from ptoscillator import (
    DomainError,
    InvalidParameterError,
    PTParameters,
    derive_scales,
    levels,
    perturbed_energy,
)


def wide_params(lam_tilde: float, depth: float = 0.5) -> PTParameters:
    kinetic = 4.0 * depth / lam_tilde**2
    half_width = math.pi / math.sqrt(8.0 * kinetic)
    return PTParameters(mass=1.0, well_depth=depth, half_width=half_width)


class TestPerturbedEnergy:
    def test_wide_well_ground_state(self, wide_well):
        # harmonic 0.005, quartic T/2 = 2.5e-5; exact E_1 = 5.0250625e-3.
        result = perturbed_energy(wide_well, 1)
        assert result.harmonic == pytest.approx(0.005, rel=1e-12)
        assert result.quartic == pytest.approx(2.5e-5, rel=1e-12)
        assert result.total == pytest.approx(5.025e-3, rel=1e-12)
        exact = levels(wide_well, 1).energy_total
        assert exact - result.total == pytest.approx(6.25e-8, rel=1e-4)

    def test_wide_well_second_level(self, wide_well):
        result = perturbed_energy(wide_well, 2)
        assert result.quartic == pytest.approx(1.25e-4, rel=1e-12)
        exact = levels(wide_well, 2).energy_total
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
        exact = levels(params, n).energy_total
        predicted_residual = scales.kinetic_scale**2 / (2.0 * hw_tilde) * (n - 0.5)
        ratio = (exact - perturbed_energy(params, n).total) / predicted_residual
        assert 0.9 <= ratio <= 1.1

    def test_rejects_bad_quantum_number(self, wide_well):
        with pytest.raises(InvalidParameterError):
            perturbed_energy(wide_well, -2)

    def test_overflowing_total_is_domain_error(self):
        # T is about 1.2e280: the harmonic part 2 sqrt(V0 T) (n - 1/2)
        # overflows although every derived scale is finite.
        with pytest.raises(DomainError, match="^energy of level 2 "):
            perturbed_energy(PTParameters(1.0, 1e300, 1e-140), 2)
