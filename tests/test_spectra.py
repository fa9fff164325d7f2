import math
import struct
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptoscillator import (
    CROSSOVER,
    FP_DOMINATED,
    HO_DOMINATED,
    DomainError,
    InvalidParameterError,
    Levels,
    PTOscillatorError,
    PTParameters,
    derive_scales,
    levels,
    numerical_pressure,
    spectrum_table,
)
from ptoscillator.spectra import MAX_TABLE_LEVELS

positive = st.floats(min_value=1e-2, max_value=1e2, allow_nan=False, allow_infinity=False)
full_range = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
log_uniform = st.floats(min_value=-300.0, max_value=300.0).map(lambda exponent: 10.0**exponent)
wide_log_uniform = st.floats(min_value=-250.0, max_value=250.0).map(
    lambda exponent: 10.0**exponent
)


class TestEnergyLevel:
    def test_unit_well_ground_state(self, unit_well):
        level = levels(unit_well, 1)
        assert (level.energy_fp, level.energy_ho, level.energy_total) == (0.5, 0.25, 0.75)

    def test_unit_well_third_level(self, unit_well):
        level = levels(unit_well, 3)
        assert (level.energy_fp, level.energy_ho, level.energy_total) == (4.5, 1.25, 5.75)

    def test_box_is_pure_quadratic(self):
        params = PTParameters(mass=1.0, well_depth=0.0, half_width=2.0)
        kinetic = derive_kinetic(params)
        level = levels(params, 2)
        assert level.energy_ho == 0.0
        assert level.energy_total == 4.0 * kinetic

    def test_rejects_bad_quantum_number(self, unit_well):
        for bad in (0, -3, 1.5, True, np.array([1, 0]), np.array([1.0, 2.0]), 2**64):
            with pytest.raises(InvalidParameterError):
                levels(unit_well, bad)


class TestLevels:
    @pytest.mark.parametrize("well", ["unit_well", "wide_well", "shallow_well", "box"])
    def test_array_matches_scalar_bit_for_bit(self, request, well):
        params = request.getfixturevalue(well)
        columns = levels(params, np.arange(1, 201))
        for n, row in enumerate(zip(*(column.tolist() for column in columns)), start=1):
            scalar = levels(params, n)
            assert [type(value) for value in scalar] == [int] + [float] * 7 + [str]
            bits = [_bits(value) for value in row]
            assert bits == [_bits(value) for value in scalar]
            assert bits == [_bits(value) for value in _loop_level(params, n)]

    def test_fields_are_the_table_columns(self, unit_well):
        assert Levels._fields == (
            "n", "energy_fp", "energy_ho", "energy_total", "pressure_fp", "pressure_ho",
            "pressure_total", "regime_ratio", "regime_label",
        )
        assert levels(unit_well, np.arange(1, 4)).n.tolist() == [1, 2, 3]


def _bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


def _outcome(params: PTParameters, n):
    """The bits and types of levels(params, n), or the error it raises."""
    try:
        columns = levels(params, n)
    except PTOscillatorError as exc:
        return type(exc), str(exc)
    rows = zip(*(column.tolist() for column in columns)) if np.ndim(n) else [columns]
    return [[(type(value), _bits(value)) for value in row] for row in rows]


class TestScalarAndArrayPaths:
    # One level is evaluated in Python floats and an array of levels in
    # numpy; the two run the same arithmetic and must agree bit for bit,
    # in types, labels and errors, up to the first failing level.
    @given(
        mass=log_uniform,
        depth=st.one_of(st.just(0.0), log_uniform),
        half_width=log_uniform,
        hbar=log_uniform,
        n_max=st.integers(1, 300),
    )
    # the box, where eta's denominator is zero
    @example(mass=1.0, depth=0.0, half_width=1.0, hbar=1.0, n_max=20)
    # lambda = 5e-324: lambda (n - 1/2) underflows to zero at n = 1
    @example(mass=1.0, depth=1e-323, half_width=1.0, hbar=math.sqrt(32.0) / math.pi, n_max=5)
    # a subnormal lambda of 1.6e-308 whose eta is finite for n = 1 and 2
    @example(mass=1.0, depth=1e-308, half_width=1.0, hbar=1.0, n_max=5)
    # (1/L) T underflows, so the wall term is multiplied in another order
    @example(
        mass=2.245375004865126e164,
        depth=5.845138798837301e-161,
        half_width=2.6262229248788474e98,
        hbar=8.058064713421376e60,
        n_max=3,
    )
    # T = 1.2e304: the energy of level 121 overflows first at L = 4, and
    # the pressure of level 86 at L = 1
    @example(mass=1.0, depth=0.0, half_width=4.0, hbar=4e152, n_max=300)
    @example(mass=1.0, depth=0.0, half_width=1.0, hbar=1e152, n_max=300)
    @settings(max_examples=300, deadline=None)
    def test_scalar_level_is_the_array_row(self, mass, depth, half_width, hbar, n_max):
        params = PTParameters(mass, depth, half_width, hbar)
        array = _outcome(params, np.arange(1, n_max + 1))
        scalars = [_outcome(params, n) for n in range(1, n_max + 1)]
        if isinstance(array, list):
            assert [row for [row] in scalars] == array
        else:
            # the error that names the array's first failing level
            assert next(s for s in scalars if not isinstance(s, list)) == array


def _loop_level(params: PTParameters, n: int) -> tuple:
    """The closed forms in Python floats, one level at a time, with the
    kernel's order of operations: the reference it must match exactly."""
    s = derive_scales(params)
    inv_l = 1.0 / params.half_width
    e_fp = s.kinetic_scale * n * n
    e_ho = s.oscillator_quantum * (n - 0.5)
    p_fp = 2.0 * inv_l * e_fp
    p_ho = 2.0 * inv_l * e_ho - inv_l * s.kinetic_scale * s.psi_factor * (n - 0.5)
    eta = n * n / (s.lambda_exact * (n - 0.5)) if s.lambda_exact else math.inf
    label = HO_DOMINATED if eta < 0.5 else FP_DOMINATED if eta >= 2.0 else CROSSOVER
    return (n, e_fp, e_ho, e_fp + e_ho, p_fp, p_ho, p_fp + p_ho, eta, label)


def derive_kinetic(params: PTParameters) -> float:
    alpha = math.pi / (2.0 * params.half_width)
    return params.hbar**2 * alpha**2 / (2.0 * params.mass)


class TestNonFiniteTotals:
    def test_overflowing_levels_are_domain_errors(self):
        # T is about 1.2e300 here: n^2 T overflows near n = 1.2e4, and the
        # pressure parts scale by 1/L = 1e150 (inf - inf for the well).
        # The energy is named first, so a pressure error shows that the
        # energy of that level is finite.
        narrow_box = PTParameters(1.0, 0.0, 1e-150)
        narrow_deep = PTParameters(1.0, 1e300, 1e-150)
        with pytest.raises(DomainError, match="^pressure of level 1 "):
            levels(narrow_deep, 1)
        with pytest.raises(DomainError, match="^energy of level 20000 "):
            levels(narrow_box, 20000)
        with pytest.raises(DomainError, match="^pressure of level 1 "):
            levels(narrow_box, 1)

    def test_first_failing_level_is_named(self):
        narrow_box = PTParameters(1.0, 0.0, 1e-150)
        with pytest.raises(DomainError, match="^pressure of level 3 "):
            levels(narrow_box, np.array([3, 20000]))
        with pytest.raises(DomainError, match=r"^energy of level 20000 .*\(total inf\)$"):
            levels(narrow_box, np.array([20000, 3]))


class TestPressureLevel:
    def test_unit_well_ground_state(self, unit_well):
        level = levels(unit_well, 1)
        assert level.pressure_fp == pytest.approx(2 / math.pi, rel=1e-14)
        assert level.pressure_ho == pytest.approx(0.25 / math.pi, rel=1e-14)
        assert level.pressure_total == pytest.approx(2.25 / math.pi, rel=1e-14)

    def test_box_equation_of_state_is_exact(self, box):
        # L = 1, so P = 2 E / L holds bit for bit.
        for n in (1, 2, 5):
            level = levels(box, n)
            assert level.pressure_total == 2.0 * level.energy_total
            assert level.pressure_total * box.half_width / level.energy_total == 2.0
        assert levels(box, 1).pressure_total == pytest.approx(math.pi**2 / 4, rel=1e-15)

    def test_wide_well_near_linear_equation_of_state(self, wide_well):
        level = levels(wide_well, 1)
        assert level.pressure_total == pytest.approx(
            level.energy_total / wide_well.half_width, rel=2e-2
        )

    def test_matches_width_derivative(self, unit_well, wide_well, shallow_well, box):
        # Hellmann-Feynman: closed-form pressure equals -dE/dL.
        for params in (unit_well, wide_well, shallow_well, box):
            for n in range(1, 21):
                numeric = numerical_pressure(params, n)
                closed = levels(params, n).pressure_total
                assert closed == pytest.approx(numeric, rel=1e-8)

    @given(mass=positive, depth=positive, half_width=positive, n=st.integers(1, 40))
    @settings(max_examples=100)
    def test_components_positive(self, mass, depth, half_width, n):
        level = levels(PTParameters(mass, depth, half_width), n)
        assert level.pressure_fp > 0.0
        assert level.pressure_ho >= 0.0

    # In about one well in a hundred of this range (1/L) T underflows; taken
    # first, it kept a subnormal's few bits, and the total of the example
    # read 1.32e-298, twice the true 6.62e-299.
    @given(
        mass=wide_log_uniform,
        depth=wide_log_uniform,
        half_width=wide_log_uniform,
        hbar=wide_log_uniform,
        n=st.sampled_from([1, 2, 10, 1000]),
    )
    @example(
        mass=2.245375004865126e164,
        depth=5.845138798837301e-161,
        half_width=2.6262229248788474e98,
        hbar=8.058064713421376e60,
        n=1,
    )
    @settings(max_examples=300, deadline=None)
    def test_total_matches_extended_precision(self, mass, depth, half_width, hbar, n):
        params = PTParameters(mass, depth, half_width, hbar)
        try:
            closed = levels(params, n).pressure_total
        except PTOscillatorError:
            return
        with mp.workdps(60):
            length = mp.mpf(half_width)
            kinetic = mp.mpf(hbar) ** 2 * (mp.pi / (2 * length)) ** 2 / (2 * mp.mpf(mass))
            ratio = 4 * mp.mpf(depth) / kinetic
            lam = ratio / (1 + mp.sqrt(1 + ratio))
            exact = (2 * kinetic * n**2 + kinetic * lam**2 * (n - mp.mpf(0.5)) / (1 + lam)) / length
            if not sys.float_info.min <= exact <= sys.float_info.max:
                return
            assert abs(closed - exact) <= 1e-13 * exact


class TestRegimeRatio:
    def test_unit_well_threshold_case(self, unit_well):
        # eta_1 = 1 / (1 * 0.5) = 2, on the box-dominated threshold.
        level = levels(unit_well, 1)
        assert level.regime_ratio == 2.0
        assert level.regime_label == FP_DOMINATED

    def test_unit_well_high_level(self, unit_well):
        level = levels(unit_well, 10)
        assert level.regime_ratio == pytest.approx(100 / 9.5, rel=1e-15)
        assert level.regime_label == FP_DOMINATED

    def test_wide_well_ground_state_is_oscillator_like(self, wide_well):
        level = levels(wide_well, 1)
        assert level.regime_ratio == pytest.approx(0.010050126, rel=1e-6)
        assert level.regime_label == HO_DOMINATED

    def test_crossover_window(self):
        # lambda = 1: eta_2 = 4 / 1.5 = 8/3 > 2 but eta with lambda = 4
        # at n = 3: 9 / (4 * 2.5) = 0.9 lands in the window.
        params = PTParameters(mass=1.0, well_depth=3.0, half_width=math.pi / 2)
        assert derive_lambda(params) == pytest.approx(4.0, rel=1e-14)
        level = levels(params, 3)
        assert level.regime_ratio == pytest.approx(0.9, rel=1e-13)
        assert level.regime_label == CROSSOVER

    def test_box_sentinel(self, box):
        level = levels(box, 4)
        assert level.regime_ratio == math.inf
        assert level.regime_label == FP_DOMINATED

    # a negative zero depth is the box: lambda is +0.0, not -0.0, so eta is
    # +inf and every level box-dominated
    def test_negative_zero_depth_is_the_box(self):
        params = PTParameters(1.0, -0.0, 1.0)
        assert _bits(derive_scales(params).lambda_exact) == _bits(0.0)
        n = np.arange(1, 7)
        negative = levels(params, n)
        assert negative.regime_ratio.tolist() == [math.inf] * 6
        assert negative.regime_label.tolist() == [FP_DOMINATED] * 6
        box = levels(PTParameters(1.0, 0.0, 1.0), n)
        for got, want in zip(negative, box):
            assert list(map(_bits, got.tolist())) == list(map(_bits, want.tolist()))

    @given(depth=positive, half_width=positive, n=st.integers(1, 60))
    @settings(max_examples=150)
    def test_ratio_identity(self, depth, half_width, n):
        # eta_n * lambda / n - 1 == 1 / (2n - 1), exactly in algebra.
        params = PTParameters(1.0, depth, half_width)
        lam = derive_lambda(params)
        eta = levels(params, n).regime_ratio
        assert abs(eta * lam / n - 1.0) == pytest.approx(1.0 / (2 * n - 1), rel=1e-11)


def derive_lambda(params: PTParameters) -> float:
    ratio = 4.0 * params.well_depth / derive_kinetic(params)
    return ratio / (1.0 + math.sqrt(1.0 + ratio))


class TestSpectrumTable:
    def test_single_row_consistency(self, unit_well):
        table = spectrum_table(unit_well, 1)
        row = table.rows[0]
        level = levels(unit_well, 1)
        assert (row.energy_fp, row.energy_ho, row.energy_total) == level[1:4]
        assert (row.pressure_fp, row.pressure_ho, row.pressure_total) == level[4:7]
        assert row.regime_ratio == level.regime_ratio

    def test_unit_well_energies(self, unit_well):
        for n_max in (3, np.int64(3)):
            table = spectrum_table(unit_well, n_max)
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

    # spectrum_table checks no ordering of its own.  levels rejects totals
    # that are not finite, T is a normal float and n <= 10^6, so consecutive
    # totals differ by at least about 1e-6 relative, far above rounding.
    @given(
        mass=log_uniform,
        depth=st.one_of(st.just(0.0), log_uniform),
        half_width=log_uniform,
        hbar=log_uniform,
        n_max=st.integers(1, 300),
    )
    @settings(max_examples=500, deadline=None)
    def test_log_uniform_scales_are_ordered(self, mass, depth, half_width, hbar, n_max):
        params = PTParameters(mass, depth, half_width, hbar)
        try:
            levels(params, np.arange(1, n_max + 1))
        except PTOscillatorError:
            return
        energies = [row.energy_total for row in spectrum_table(params, n_max).rows]
        assert np.all(np.diff(energies) > 0.0)
        # the smallest relative gap, at the cap
        try:
            top = levels(params, np.array([MAX_TABLE_LEVELS - 1, MAX_TABLE_LEVELS]))
        except PTOscillatorError:
            return
        assert top.energy_total[1] > top.energy_total[0]

    @pytest.mark.parametrize("lam_target", [0.5, 1.0, 5.0, 40.0])
    def test_box_oscillator_balance_flips_at_most_once(self, lam_target):
        kinetic = 0.5  # L = pi/2
        depth = kinetic * lam_target * (lam_target + 2) / 4
        table = spectrum_table(PTParameters(1.0, depth, math.pi / 2), 200)
        signs = [row.energy_fp - row.energy_ho > 0 for row in table.rows]
        assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) <= 1

    @pytest.mark.filterwarnings("error")
    @given(
        mass=full_range,
        depth=st.one_of(st.just(0.0), full_range),
        half_width=full_range,
        hbar=full_range,
    )
    @settings(max_examples=500, deadline=None)
    def test_full_float_range_is_ordered_and_finite_or_typed_error(
        self, mass, depth, half_width, hbar
    ):
        try:
            table = spectrum_table(PTParameters(mass, depth, half_width, hbar), 50)
        except PTOscillatorError:
            return
        energies = np.array([row.energy_total for row in table.rows])
        pressures = np.array([row.pressure_total for row in table.rows])
        assert np.all(np.isfinite(energies))
        assert np.all(np.diff(energies) > 0.0)
        assert np.all(np.isfinite(pressures))


class TestSuperpartner:
    # Shape invariance: with V0 = T s (s - 1) the levels are
    # E_n + V0 = T (n + s - 1)^2, and the partner well V0 = T (s + 1) s has
    # the same levels bar the first, so E_n(s) - E_{n-1}(s + 1) = 2 T s.  An
    # error in how lambda depends on V0 / T breaks it with no reference
    # value.  Measured worst rounding: 3.0 eps E_n over 2e4 random wells.
    @given(
        s=st.floats(min_value=1.0, max_value=1e3),
        mass=st.floats(min_value=1e-30, max_value=1e30),
        half_width=st.floats(min_value=1e-30, max_value=1e30),
        hbar=st.floats(min_value=1e-30, max_value=1e30),
    )
    @settings(max_examples=200, deadline=None)
    def test_partner_levels_differ_by_2_t_s(self, s, mass, half_width, hbar):
        kinetic = derive_kinetic(PTParameters(mass, 0.0, half_width, hbar))
        n = np.arange(2, 201)
        energies = levels(PTParameters(mass, kinetic * s * (s - 1.0), half_width, hbar), n)
        partner = levels(PTParameters(mass, kinetic * (s + 1.0) * s, half_width, hbar), n - 1)
        gap = energies.energy_total - partner.energy_total
        eps = np.finfo(float).eps
        assert np.all(np.abs(gap - 2.0 * kinetic * s) <= 8.0 * eps * energies.energy_total)
