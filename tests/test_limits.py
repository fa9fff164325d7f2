import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptoscillator import (
    DomainError,
    InvalidParameterError,
    PTOscillatorError,
    PTParameters,
    action,
    derive_scales,
    fp_limit_expansion,
    ho_limit_expansion,
    levels,
    perturbed_energy,
    qc_energy_closed,
    qc_energy_numeric,
)

mp.mp.dps = 50


def shallow_params(x: float) -> PTParameters:
    """Parameters with 4 V0 / T = x at L = pi/2 (so T = 1/2)."""
    return PTParameters(mass=1.0, well_depth=x / 8.0, half_width=math.pi / 2)


def wide_params(eps: float, depth: float = 0.5) -> PTParameters:
    """Parameters with 2 sqrt(V0/T) = 1/eps at fixed well depth."""
    # T = 4 V0 eps^2 and T = pi^2 hbar^2 / (8 m L^2) fix L.
    kinetic = 4.0 * depth * eps * eps
    half_width = math.pi / math.sqrt(8.0 * kinetic)
    return PTParameters(mass=1.0, well_depth=depth, half_width=half_width)


class TestBoxSideExpansion:
    def test_exact_at_limit_point(self):
        expansion = fp_limit_expansion(PTParameters(1.0, 0.0, 1.0), order=2)
        assert expansion.lambda_approx == 0.0
        assert expansion.oscillator_quantum_approx == 0.0

    def test_second_order_value(self, shallow_well):
        # x = 0.04: series gives 0.0198, truth is sqrt(1.04) - 1.
        expansion = fp_limit_expansion(shallow_well, order=2)
        assert expansion.lambda_approx == pytest.approx(0.0198, rel=1e-14)
        exact = float(mp.sqrt(mp.mpf("1.04")) - 1)
        error = abs(exact - expansion.lambda_approx)
        # leading neglected term x^3 / 16
        assert error / 0.04**3 == pytest.approx(1 / 16, rel=0.05)

    def test_first_order_error_is_quadratic(self, shallow_well):
        expansion = fp_limit_expansion(shallow_well, order=1)
        assert expansion.lambda_approx == pytest.approx(0.02, rel=1e-14)
        exact = float(mp.sqrt(mp.mpf("1.04")) - 1)
        error = abs(exact - expansion.lambda_approx)
        # leading neglected term x^2 / 8
        assert error / 0.04**2 == pytest.approx(1 / 8, rel=0.05)

    @pytest.mark.parametrize("order", [1, 2])
    def test_error_coefficient_bounded_toward_limit(self, order):
        coefficient = {1: 1 / 8, 2: 1 / 16}[order]
        for x in (1e-4, 1e-3, 1e-2):
            params = shallow_params(x)
            approx = fp_limit_expansion(params, order).lambda_approx
            exact = derive_scales(params).lambda_exact
            assert abs(exact - approx) / x ** (order + 1) == pytest.approx(
                coefficient, rel=0.05
            )

    def test_domain_guard(self, unit_well):
        with pytest.raises(DomainError):
            fp_limit_expansion(unit_well, order=1)  # V0 / T = 0.75

    # the order is checked before the regime, so the unit well, outside it,
    # rejects these orders too
    def test_order_guard(self, shallow_well, unit_well):
        for params in (shallow_well, unit_well):
            for bad in (3, True, 2.0):
                with pytest.raises(InvalidParameterError):
                    fp_limit_expansion(params, order=bad)

    def test_energy_rejects_bad_quantum_number(self, shallow_well):
        expansion = fp_limit_expansion(shallow_well, order=2)
        for bad in (1.5, 0, True):
            with pytest.raises(InvalidParameterError):
                expansion.energy(bad)

    def test_energy_overflow_is_domain_error(self):
        # T ~ 1.2e300, so T n^2 overflows at n = 10^6
        expansion = fp_limit_expansion(PTParameters(1.0, 0.0, 1e-150), order=2)
        with pytest.raises(DomainError, match="floating-point range"):
            expansion.energy(10**6)


class TestOscillatorSideExpansion:
    def test_third_order_frequency(self, wide_well):
        # lt = 200: hw ~ 0.01 - 5e-5 + 1.25e-7.
        expansion = ho_limit_expansion(wide_well, order=3)
        assert expansion.lambda_approx == pytest.approx(200.0 - 1.0 + 1.0 / 400.0, rel=1e-13)
        assert expansion.oscillator_quantum_approx == pytest.approx(9.950125e-3, rel=1e-13)
        exact = float(mp.mpf("5e-5") * (mp.sqrt(40001) - 1))
        assert expansion.oscillator_quantum_approx == pytest.approx(exact, rel=1e-10)

    def test_second_order_error_matches_next_term(self, wide_well):
        expansion = ho_limit_expansion(wide_well, order=2)
        scales = derive_scales(wide_well)
        error = abs(scales.oscillator_quantum - expansion.oscillator_quantum_approx)
        hw_tilde = 2.0 * math.sqrt(wide_well.well_depth * scales.kinetic_scale)
        next_term = scales.kinetic_scale**2 / (2.0 * hw_tilde)
        assert error == pytest.approx(next_term, rel=0.05)

    def test_leading_order_energy(self, wide_well):
        # E~_1 = hw~ / 2 = 0.005 vs exact 5.0250625e-3; deviation ~ T / hw~.
        expansion = ho_limit_expansion(wide_well, order=1)
        approx = expansion.energy(1)
        assert approx == pytest.approx(0.005, rel=1e-12)
        exact = levels(wide_well, 1).energy_total
        assert exact == pytest.approx(5.0250625e-3, rel=1e-10)
        deviation = abs(exact - approx) / exact
        scales = derive_scales(wide_well)
        assert deviation == pytest.approx(scales.kinetic_scale / 0.01, rel=0.01)

    def test_higher_orders_restore_box_term(self, wide_well):
        scales = derive_scales(wide_well)
        expansion = ho_limit_expansion(wide_well, order=2)
        assert expansion.energy(3) == pytest.approx(
            scales.kinetic_scale * 9 + expansion.oscillator_quantum_approx * 2.5, rel=1e-14
        )

    # First-order perturbation in the quartic term, hw~ (n - 1/2) +
    # T (n^2 - n + 1/2), is the order-2 series T n^2 + T (lt - 1)(n - 1/2)
    # rearranged; measured worst relative gap over n <= 2000: 4.3e-16.
    @pytest.mark.parametrize("half_width", [math.pi / 2, 1.0, 50.0 * math.pi])
    @pytest.mark.parametrize("depth_ratio", [4.01, 10.0, 1e4, 1e8])
    def test_second_order_is_first_order_perturbation(self, depth_ratio, half_width):
        kinetic = derive_scales(PTParameters(1.0, 0.0, half_width)).kinetic_scale
        params = PTParameters(mass=1.0, well_depth=depth_ratio * kinetic, half_width=half_width)
        expansion = ho_limit_expansion(params, order=2)
        assert expansion.box_scale == derive_scales(params).kinetic_scale
        for n in range(1, 2001):
            assert perturbed_energy(params, n) == pytest.approx(
                expansion.energy(n), rel=1e-15, abs=0.0
            )

    def test_frequency_ratio_tends_to_one(self):
        # lt -> infinity: hw / hw~ -> 1.
        params = wide_params(1e-6)
        scales = derive_scales(params)
        hw_tilde = ho_limit_expansion(params, order=1).oscillator_quantum_approx
        assert abs(scales.oscillator_quantum / hw_tilde - 1.0) < 2e-6

    def test_domain_guard(self, unit_well, shallow_well):
        with pytest.raises(DomainError):
            ho_limit_expansion(unit_well, order=1)
        with pytest.raises(DomainError):
            ho_limit_expansion(shallow_well, order=2)

    # the order is checked before the regime, so the unit well, outside it,
    # rejects these orders too
    def test_order_guard(self, wide_well, unit_well):
        for params in (wide_well, unit_well):
            for bad in (4, True, 2.0, 3.0):
                with pytest.raises(InvalidParameterError):
                    ho_limit_expansion(params, order=bad)


class TestConvergenceOrders:
    def test_box_side_slopes(self):
        xs = np.logspace(-5, -1, 21)
        for order in (1, 2):
            errors = []
            for x in xs:
                params = shallow_params(float(x))
                approx = fp_limit_expansion(params, order).lambda_approx
                errors.append(abs(derive_scales(params).lambda_exact - approx))
            slope = np.polyfit(np.log(xs), np.log(errors), 1)[0]
            assert slope == pytest.approx(order + 1, abs=0.2)

    def test_oscillator_side_slopes(self):
        eps = np.logspace(-5, -1, 21)
        for order in (1, 2):
            errors = []
            for e in eps:
                params = wide_params(float(e))
                approx = ho_limit_expansion(params, order).oscillator_quantum_approx
                errors.append(abs(derive_scales(params).oscillator_quantum - approx))
            slope = np.polyfit(np.log(eps), np.log(errors), 1)[0]
            assert slope == pytest.approx(order + 1, abs=0.2)

    def test_oscillator_side_third_order_beats_nominal_rate(self):
        # The eps^4 coefficient of the frequency series vanishes, so the
        # measured exponent is ~5, above the nominal order + 1 = 4.  The
        # range stays above the double-precision cancellation floor.
        eps = np.logspace(-3, -0.8, 15)
        errors = []
        for e in eps:
            params = wide_params(float(e))
            approx = ho_limit_expansion(params, order=3).oscillator_quantum_approx
            errors.append(abs(derive_scales(params).oscillator_quantum - approx))
        slope = np.polyfit(np.log(eps), np.log(errors), 1)[0]
        assert slope >= 3.8
        assert slope == pytest.approx(5.0, abs=0.3)


def equation_of_state_exponent(params: PTParameters, n: int) -> float:
    """The effective exponent s = P L / E of level n."""
    level = levels(params, n)
    return level.pressure_total * params.half_width / level.energy_total


class TestEquationOfState:
    def test_box_is_exactly_two(self, box):
        assert equation_of_state_exponent(box, 5) == 2.0

    def test_wide_well_is_nearly_one(self, wide_well):
        # the oscillator limit s = 1, approached as T / hw~ = 5e-3
        assert equation_of_state_exponent(wide_well, 1) - 1.0 == pytest.approx(5e-3, rel=1e-2)

    def test_deviation_shrinks_linearly_with_width(self, wide_well):
        # T / hw~ falls as 1 / L at fixed depth, and s - 1 with it
        wider = PTParameters(
            mass=wide_well.mass,
            well_depth=wide_well.well_depth,
            half_width=10 * wide_well.half_width,
            hbar=wide_well.hbar,
        )
        deviation = equation_of_state_exponent(wide_well, 1) - 1.0
        deviation10 = equation_of_state_exponent(wider, 1) - 1.0
        assert deviation10 <= 0.5 * deviation
        assert deviation / deviation10 == pytest.approx(10.0, abs=0.5)

    @given(
        depth=st.floats(min_value=1e-3, max_value=1e3),
        half_width=st.floats(min_value=1e-2, max_value=1e2),
        n=st.integers(1, 30),
    )
    @settings(max_examples=150)
    def test_effective_exponent_between_regimes(self, depth, half_width, n):
        params = PTParameters(1.0, depth, half_width)
        level = levels(params, n)
        s_eff = level.pressure_total * params.half_width / level.energy_total
        assert 1.0 < s_eff < 2.0

    def test_exponent_limits(self):
        nearly_box = PTParameters(1.0, 1e-9, 1.0)
        level = levels(nearly_box, 1)
        s_box = level.pressure_total * nearly_box.half_width / level.energy_total
        assert s_box == pytest.approx(2.0, abs=1e-8)
        nearly_ho = wide_params(1e-5)
        level = levels(nearly_ho, 1)
        s_ho = level.pressure_total * nearly_ho.half_width / level.energy_total
        assert s_ho == pytest.approx(1.0, abs=1e-4)


full_range = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)


class TestFullFloatRange:
    @pytest.mark.filterwarnings("error")
    @given(
        mass=full_range,
        depth=st.one_of(st.just(0.0), full_range),
        half_width=full_range,
        hbar=full_range,
        n=st.integers(min_value=1, max_value=10**6),
    )
    # T ~ 1.2e300: T n^2 overflows, a corner the random search seldom reaches
    @example(mass=1.0, depth=0.0, half_width=1e-150, hbar=1.0, n=10**6)
    # an electron in a 1 nm well: energies far below an absolute root tolerance
    @example(mass=9.1093837015e-31, depth=1.602176634e-20, half_width=1e-9,
             hbar=1.054571817e-34, n=1)
    @settings(max_examples=500, deadline=None)
    def test_approximate_energies_are_finite_or_typed_error(
        self, mass, depth, half_width, hbar, n
    ):
        params = PTParameters(mass, depth, half_width, hbar)
        energies = [
            lambda: qc_energy_closed(params, n),
            lambda: perturbed_energy(params, n),
        ]
        for expand, orders in ((fp_limit_expansion, (1, 2)), (ho_limit_expansion, (1, 2, 3))):
            for order in orders:
                try:
                    expansion = expand(params, order)
                except PTOscillatorError:
                    continue
                energies.append(lambda expansion=expansion: expansion.energy(n))
        for energy in energies:
            try:
                value = energy()
            except PTOscillatorError:
                continue
            assert isinstance(value, float)
            assert math.isfinite(value)
        # the Bohr-Sommerfeld quadrature at the closed-form level, and its
        # root, which must agree with the closed form when both return
        try:
            closed = qc_energy_closed(params, n)
        except PTOscillatorError:
            return
        try:
            assert math.isfinite(action(params, closed).action)
        except PTOscillatorError:
            pass
        try:
            numeric = qc_energy_numeric(params, n)
        except PTOscillatorError:
            return
        assert isinstance(numeric, float)
        assert abs(numeric - closed) <= 1e-8 * closed
