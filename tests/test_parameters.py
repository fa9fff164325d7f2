import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptoscillator import (
    DomainError,
    InvalidParameterError,
    PTParameters,
    derive_scales,
    numerical_pressure,
    perturbed_energy,
    potential,
    qc_energy_numeric,
)

mp.mp.dps = 50


def lambda_literal_highprec(depth_over_kinetic: float) -> float:
    """Extended-precision evaluation of sqrt(1 + 4 V0/T) - 1."""
    return float(mp.sqrt(1 + 4 * mp.mpf(depth_over_kinetic)) - 1)


positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
depths = st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False)


class TestDeriveScales:
    def test_zero_depth_degenerates_to_box(self):
        scales = derive_scales(PTParameters(mass=1, well_depth=0.0, half_width=math.pi / 2))
        assert scales.alpha == 1.0
        assert scales.kinetic_scale == 0.5
        assert scales.lambda_exact == 0.0
        assert scales.oscillator_quantum == 0.0
        assert scales.psi_factor == 0.0
        assert scales.zeta_squared == math.inf
        assert scales.n_critical == math.inf

    def test_unit_shape_parameter_case(self, unit_well):
        # 4 V0 / T = 3, so sqrt(1 + 3) = 2 exactly and lambda = 1.
        scales = derive_scales(unit_well)
        assert scales.alpha == 1.0
        assert scales.kinetic_scale == 0.5
        assert scales.lambda_exact == 1.0
        assert scales.oscillator_quantum == 0.5
        assert scales.psi_factor == 1.5
        assert scales.n_critical == 1.0

    def test_alpha_is_the_wall_wavenumber(self, unit_well, wide_well):
        for params in (unit_well, wide_well):
            assert params.alpha == math.pi / (2.0 * params.half_width)
            assert derive_scales(params).alpha == params.alpha

    def test_wide_well_against_extended_precision(self, wide_well):
        # T = 5e-5, 4 V0 / T = 40000, lambda = sqrt(40001) - 1.
        scales = derive_scales(wide_well)
        assert scales.alpha == pytest.approx(0.01, rel=1e-15)
        assert scales.kinetic_scale == pytest.approx(5e-5, rel=1e-14)
        exact_lambda = float(mp.sqrt(40001) - 1)  # 199.00249998437519...
        assert scales.lambda_exact == pytest.approx(exact_lambda, rel=1e-14)
        assert scales.oscillator_quantum == pytest.approx(9.9501249992187598e-3, rel=1e-12)

    @given(mass=positive, depth=depths, half_width=positive, hbar=positive)
    @settings(max_examples=200)
    def test_reconstruction_identity(self, mass, depth, half_width, hbar):
        # V0 = T * lambda * (lambda + 2) / 4 must be recovered.
        params = PTParameters(mass=mass, well_depth=depth, half_width=half_width, hbar=hbar)
        scales = derive_scales(params)
        recovered = scales.kinetic_scale * scales.lambda_exact * (scales.lambda_exact + 2) / 4
        assert recovered == pytest.approx(depth, rel=1e-12, abs=1e-300)

    @given(
        mass=positive,
        depth=depths,
        half_width=positive,
        hbar=positive,
        factor=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=200)
    def test_scaling_homogeneity(self, mass, depth, half_width, hbar, factor):
        # alpha(cL) = alpha(L)/c and T(cL) = T(L)/c^2 up to rounding.
        base = derive_scales(PTParameters(mass, depth, half_width, hbar))
        scaled = derive_scales(PTParameters(mass, depth, factor * half_width, hbar))
        assert scaled.alpha == pytest.approx(base.alpha / factor, rel=5e-15)
        assert scaled.kinetic_scale == pytest.approx(base.kinetic_scale / factor**2, rel=5e-15)

    @given(
        mass=positive,
        half_width=positive,
        hbar=positive,
        lo=st.floats(min_value=1e-3, max_value=1e3),
        growth=st.floats(min_value=1.001, max_value=10.0),
    )
    @settings(max_examples=200)
    def test_lambda_strictly_increasing_in_depth(self, mass, half_width, hbar, lo, growth):
        small = derive_scales(PTParameters(mass, lo, half_width, hbar))
        large = derive_scales(PTParameters(mass, lo * growth, half_width, hbar))
        assert large.lambda_exact > small.lambda_exact

    @given(
        mass=positive,
        depth=st.floats(min_value=1e-3, max_value=1e3),
        hbar=positive,
        lo=st.floats(min_value=1e-3, max_value=1e3),
        growth=st.floats(min_value=1.001, max_value=10.0),
    )
    @settings(max_examples=200)
    def test_lambda_strictly_increasing_in_width(self, mass, depth, hbar, lo, growth):
        narrow = derive_scales(PTParameters(mass, depth, lo, hbar))
        wide = derive_scales(PTParameters(mass, depth, lo * growth, hbar))
        assert wide.lambda_exact > narrow.lambda_exact

    @pytest.mark.parametrize("exponent", range(-12, 13, 2))
    def test_stable_form_matches_literal_form(self, exponent):
        # The rationalized lambda must agree with an extended-precision
        # evaluation of the literal sqrt(1 + 4 V0/T) - 1 across 24 decades.
        ratio = 10.0**exponent  # 4 V0 / T
        depth = ratio * 0.5 / 4.0  # L = pi/2 gives T = 1/2
        scales = derive_scales(PTParameters(mass=1, well_depth=depth, half_width=math.pi / 2))
        literal = float(mp.sqrt(1 + mp.mpf(ratio)) - 1)
        assert scales.lambda_exact == pytest.approx(literal, rel=1e-13)

    @pytest.mark.parametrize("exponent", range(-12, 13, 2))
    def test_psi_identity(self, exponent):
        # (lambda+1)(1 - (lambda+1)^-2) == lambda(lambda+2)/(lambda+1).
        ratio = 10.0**exponent
        depth = ratio * 0.5 / 4.0
        scales = derive_scales(PTParameters(mass=1, well_depth=depth, half_width=math.pi / 2))
        lam = mp.mpf(scales.lambda_exact)
        eq_form = float((lam + 1) * (1 - (lam + 1) ** -2))
        assert scales.psi_factor == pytest.approx(eq_form, rel=1e-13)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mass=0.0, well_depth=1.0, half_width=1.0),
            dict(mass=-1.0, well_depth=1.0, half_width=1.0),
            dict(mass=1.0, well_depth=-0.1, half_width=1.0),
            dict(mass=1.0, well_depth=1.0, half_width=0.0),
            dict(mass=1.0, well_depth=1.0, half_width=1.0, hbar=0.0),
            dict(mass=math.nan, well_depth=1.0, half_width=1.0),
            dict(mass=1.0, well_depth=math.inf, half_width=1.0),
            dict(mass=1.0, well_depth=1.0, half_width=math.inf),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            PTParameters(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(half_width=1e200),  # alpha^2 underflows, T = 0
            dict(half_width=1e-200),  # alpha^2 overflows, T = inf
            dict(half_width=1.0, well_depth=1e308),  # 4 V0 / T overflows
            dict(half_width=1.0, hbar=1e200),
            dict(half_width=1.0, mass=1e308),
        ],
    )
    def test_scales_out_of_float_range_rejected(self, kwargs):
        params = PTParameters(**{"mass": 1.0, "well_depth": 0.375, **kwargs})
        with pytest.raises(DomainError):
            derive_scales(params)


class TestPotential:
    def test_vanishes_at_origin(self, unit_well):
        assert potential(unit_well, 0.0) == 0.0

    def test_matches_direct_evaluation(self, unit_well):
        x = 0.7
        assert potential(unit_well, x) == pytest.approx(0.375 * math.tan(0.7) ** 2, rel=1e-15)

    def test_vectorized(self, unit_well):
        xs = np.array([-1.0, 0.0, 1.0])
        values = potential(unit_well, xs)
        assert values.shape == (3,)
        assert values[0] == values[2]  # even in x

    def test_wall_is_out_of_domain(self, unit_well):
        with pytest.raises(DomainError):
            potential(unit_well, unit_well.half_width)
        with pytest.raises(DomainError):
            potential(unit_well, np.array([0.0, -unit_well.half_width]))


class TestSingleLevelCheck:
    @pytest.mark.parametrize(
        "one_level",
        [
            perturbed_energy,
            qc_energy_numeric,
            lambda params, n: numerical_pressure(params, n, use_eigenvalues=True),
        ],
        ids=["perturbed_energy", "qc_energy_numeric", "numerical_pressure"],
    )
    def test_array_level_is_invalid_parameter(self, unit_well, one_level):
        with pytest.raises(InvalidParameterError):
            one_level(unit_well, np.array([1, 2]))
