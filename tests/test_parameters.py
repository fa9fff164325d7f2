import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptoscillator import (
    DomainError,
    GridSpec,
    InvalidParameterError,
    PTParameters,
    convergence_study,
    derive_scales,
    fp_limit_expansion,
    levels,
    numerical_pressure,
    perturbed_energy,
    potential,
    qc_energy_closed,
    qc_energy_numeric,
    solve_eigenvalues,
)
from ptoscillator.parameters import check_single_level

mp.mp.dps = 50


def lambda_literal(ratio) -> mp.mpf:
    """The literal sqrt(1 + r) - 1, r = 4 V0 / T, with the working precision
    raised by the digits its cancellation loses, so that it keeps about 50."""
    with mp.workdps(mp.mp.dps + max(0, 1 - int(mp.log10(ratio)))):
        return +(mp.sqrt(1 + ratio) - 1)


# 4 V0 / T = 10^exponent from 1e-300 to 1e300
RATIO_EXPONENTS = [-300, -200, -100, -60, -30, -20, *range(-12, 13, 2), 20, 30, 60, 100, 200, 300]


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

    @pytest.mark.parametrize("exponent", RATIO_EXPONENTS)
    def test_stable_form_matches_literal_form(self, exponent):
        # The rationalized lambda must agree with an extended-precision
        # evaluation of the literal sqrt(1 + 4 V0/T) - 1 across 600 decades.
        ratio = 10.0**exponent  # 4 V0 / T
        depth = ratio * 0.5 / 4.0  # L = pi/2 gives T = 1/2
        scales = derive_scales(PTParameters(mass=1, well_depth=depth, half_width=math.pi / 2))
        literal = float(lambda_literal(mp.mpf(ratio)))
        assert scales.lambda_exact == pytest.approx(literal, rel=1e-13)

    @pytest.mark.parametrize("exponent", RATIO_EXPONENTS)
    def test_levels_match_extended_precision(self, exponent):
        # E_n = T n^2 + T lambda (n - 1/2) with the literal lambda, and
        # P_n = -dE_n/dL by mpmath's numerical derivative, in extended
        # precision for the float inputs of each well.
        for half_width in (math.pi / 2, 1.0, 3.0):
            kinetic = derive_scales(PTParameters(1.0, 0.0, half_width)).kinetic_scale
            params = PTParameters(1.0, 10.0**exponent * kinetic / 4.0, half_width)
            depth = mp.mpf(params.well_depth)

            def energy(length, n):
                scale = (mp.pi / (2 * length)) ** 2 / 2
                return scale * n**2 + scale * lambda_literal(4 * depth / scale) * (n - 0.5)

            length = mp.mpf(half_width)
            for n in (1, 7, 1000):
                level = levels(params, n)
                assert level.energy_total == pytest.approx(float(energy(length, n)), rel=1e-13)
                pressure = -mp.diff(lambda x: energy(x, n), length)
                assert level.pressure_total == pytest.approx(float(pressure), rel=1e-13)

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
    @pytest.mark.filterwarnings("error")
    def test_scales_out_of_float_range_rejected(self, kwargs):
        # the oracle derives its own hbar^2 / (2 m h^2) and guards it too
        params = PTParameters(**{"mass": 1.0, "well_depth": 0.375, **kwargs})
        for evaluate in (
            derive_scales,
            lambda p: solve_eigenvalues(p, GridSpec(4000, 3, 10)),
            lambda p: numerical_pressure(p, 1),
            lambda p: numerical_pressure(p, 1, use_eigenvalues=True),
            lambda p: convergence_study(p, [500, 1001], 3),
        ):
            with pytest.raises(DomainError):
                evaluate(params)


    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(hbar=1e-160),  # hbar^2 is subnormal
            dict(half_width=1e155),  # alpha^2 is subnormal
            dict(hbar=1e-100, half_width=1e55),  # hbar^2 alpha^2 is subnormal
            dict(mass=1e307, half_width=10.0),  # T is subnormal
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_subnormal_scales_rejected(self, kwargs):
        # a subnormal keeps only a few bits: hbar = 1e-160 put T off by 1.5e-5;
        # the oracle's first grid takes its centres from the closed form, so
        # it raises too, where its pressures came back 4.1e-313 (hbar = 1e-160)
        # and 4.1e-303 (m = 1e307) against about 2.5e-320 and 2.5e-310
        params = PTParameters(**{"mass": 1.0, "well_depth": 0.0, "half_width": 1.0, **kwargs})
        for evaluate in (
            derive_scales,
            lambda p: solve_eigenvalues(p, GridSpec(4000, 3, 10)),
            lambda p: numerical_pressure(p, 1, use_eigenvalues=True),
        ):
            with pytest.raises(DomainError, match="normal floating-point range"):
                evaluate(params)


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
        with pytest.raises(DomainError):
            potential(unit_well, math.nan)
        with pytest.raises(DomainError):
            potential(unit_well, np.array([0.0, math.nan]))


    @pytest.mark.filterwarnings("error")
    def test_overflow_is_domain_error(self):
        deep = PTParameters(1.0, 1e308, 1.0)  # V(0.9) = 1e308 tan^2(0.45 pi) ~ 4e309
        with pytest.raises(DomainError, match="floating-point range"):
            potential(deep, 0.9)
        with pytest.raises(DomainError, match="floating-point range"):
            potential(deep, np.array([0.0, 0.9]))


class TestSingleLevelCheck:
    @pytest.mark.parametrize(
        "one_level",
        [
            perturbed_energy,
            qc_energy_closed,
            qc_energy_numeric,
            lambda params, n: numerical_pressure(params, n, use_eigenvalues=True),
            # the box-side expansion needs V0 / T < 1/4
            lambda params, n: fp_limit_expansion(
                PTParameters(params.mass, 0.005, params.half_width, params.hbar), 2
            ).energy(n),
        ],
        ids=[
            "perturbed_energy",
            "qc_energy_closed",
            "qc_energy_numeric",
            "numerical_pressure",
            "limit_expansion_energy",
        ],
    )
    def test_array_level_is_invalid_parameter(self, unit_well, one_level):
        with pytest.raises(InvalidParameterError):
            one_level(unit_well, np.array([1, 2]))

    # A Python int in [1, 2**64) is accepted before numpy; every other
    # value keeps the outcome and message of the numpy path.
    @pytest.mark.parametrize(
        "n", [1, 2**64 - 1, np.int64(3), np.array(2)], ids=["1", "2**64-1", "int64", "0-d"]
    )
    def test_single_level_accepted(self, n):
        assert check_single_level(n) is None

    @pytest.mark.parametrize(
        "n, message",
        [
            (2**64, "integer in"),
            (0, "integer in"),
            (-1, "integer in"),
            (True, "integer in"),
            (False, "integer in"),
            (1.5, "integer in"),
            (3.0, "integer in"),
            (np.array([1]), "single quantum number"),
            ("3", "integer in"),
            (None, "integer in"),
        ],
        ids=["2**64", "0", "-1", "True", "False", "1.5", "3.0", "array", "str", "None"],
    )
    def test_non_single_level_rejected(self, n, message):
        with pytest.raises(InvalidParameterError, match=message):
            check_single_level(n)
