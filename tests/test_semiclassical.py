import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptoscillator import (
    ActionEvaluation,
    ConvergenceError,
    DomainError,
    InvalidParameterError,
    PTOscillatorError,
    PTParameters,
    QuadratureError,
    action,
    derive_scales,
    levels,
    numerical_pressure,
    qc_energy_closed,
    qc_energy_numeric,
    semiclassical,
    spectra,
    turning_point,
)

# Closed-form semiclassical levels of the unit-shape-parameter case,
# (sqrt(1/2)(n - 1/2) + sqrt(3/8))^2 - 3/8, evaluated with mpmath at
# 50 digits and frozen here.
QC_UNIT_WELL = {
    1: 0.55801270189221932338,
    2: 2.4240381056766579701,
    5: 14.02211431702997391,
}


class TestTurningPoint:
    def test_half_width_at_depth_energy(self, unit_well):
        # E = V0 means tan^2 = 1, so x0 = L / 2.
        assert turning_point(unit_well, 0.375) == pytest.approx(
            unit_well.half_width / 2, rel=1e-15
        )

    def test_approaches_wall_at_high_energy(self, unit_well):
        x0 = turning_point(unit_well, 1e12)
        assert x0 < unit_well.half_width
        assert x0 == pytest.approx(unit_well.half_width, rel=1e-5)

    def test_against_bisection(self, unit_well):
        x0 = turning_point(unit_well, 0.75)
        assert x0 == pytest.approx(math.atan(math.sqrt(2.0)), rel=1e-15)
        # independent oracle: bisect p(x, E) = 0 on [0, L)
        lo, hi = 0.0, unit_well.half_width * (1 - 1e-12)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if 0.75 - 0.375 * math.tan(mid) ** 2 > 0.0:
                lo = mid
            else:
                hi = mid
        assert x0 == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    def test_box_returns_wall(self, box):
        assert turning_point(box, 3.0) == box.half_width

    def test_rejects_nonpositive_energy(self, unit_well):
        for energy in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                turning_point(unit_well, energy)


class TestAction:
    def test_box_orbit(self, box):
        # Constant momentum over (-L, L): action = 4 L sqrt(2 m E).
        energy = 2.0
        result = action(box, energy)
        assert result.action == pytest.approx(
            4.0 * box.half_width * math.sqrt(2.0 * energy), rel=1e-12
        )

    def test_quantization_value(self, unit_well):
        # At the ground semiclassical level the orbit encloses exactly
        # 2 pi hbar (1 - 1/2) = pi of action.
        result = action(unit_well, QC_UNIT_WELL[1])
        assert result.action == pytest.approx(math.pi, rel=1e-9)
        assert result.quadrature_error <= 1e-10 * result.action

    def test_strictly_increasing_in_energy(self, unit_well):
        assert action(unit_well, 1.5).action > action(unit_well, 0.75).action

    def test_quantization_at_every_closed_form_level(self, unit_well):
        # quadrature at E_n^QC must return 2 pi hbar (n - 1/2)
        for n in range(1, 21):
            target = 2.0 * math.pi * unit_well.hbar * (n - 0.5)
            enclosed = action(unit_well, qc_energy_closed(unit_well, n)).action
            assert abs(enclosed - target) <= 1e-8 * target

    def test_rejects_nonpositive_energy(self, unit_well):
        for energy in (-1.0, math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                action(unit_well, energy)

    def test_large_energy_action_is_closed_form(self, unit_well):
        # 2 m (E + V0) overflows, but the action, about 8.9e154, does not
        m, depth, energy = unit_well.mass, unit_well.well_depth, 1e308
        closed = (2.0 * math.pi * math.sqrt(2.0 * m) / unit_well.alpha) * (
            math.sqrt(energy + depth) - math.sqrt(depth)
        )
        assert action(unit_well, energy).action == pytest.approx(closed, rel=1e-13)

    def test_overflowing_action_is_domain_error(self):
        # the action itself, about 2 pi sqrt(2 m E) / alpha, overflows
        heavy = PTParameters(1e308, 0.375, math.pi / 2)
        with pytest.raises(DomainError, match="floating-point range"):
            action(heavy, 1e308)


class TestClosedFormLevels:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_unit_well_frozen_values(self, unit_well, n):
        assert qc_energy_closed(unit_well, n) == pytest.approx(QC_UNIT_WELL[n], rel=1e-14)

    def test_box_levels(self, box):
        scales = derive_scales(box)
        for n in (1, 3):
            assert qc_energy_closed(box, n) == pytest.approx(
                scales.kinetic_scale * (n - 0.5) ** 2, rel=1e-15
            )

    def test_unit_well_vs_exact_gap(self, unit_well):
        # E_5 exact is 14.75; the semiclassical value sits below it.
        assert levels(unit_well, 5).energy_total == 14.75
        assert qc_energy_closed(unit_well, 5) == pytest.approx(14.022114, rel=1e-6)

    def test_rejects_bad_quantum_number(self, unit_well):
        with pytest.raises(InvalidParameterError):
            qc_energy_closed(unit_well, 0)


class TestNonFiniteEnergy:
    # T ~ 1.2e300, so (sqrt(T) (n - 1/2))^2 overflows at n = 10^6
    params = PTParameters(mass=1.0, well_depth=0.0, half_width=1e-150)

    def test_closed_form_is_domain_error(self):
        with pytest.raises(DomainError, match="floating-point range"):
            qc_energy_closed(self.params, 10**6)

    def test_numeric_is_domain_error(self):
        with pytest.raises(DomainError, match="floating-point range"):
            qc_energy_numeric(self.params, 10**6)


class TestNumericLevels:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_closed_form(self, unit_well, n):
        numeric = qc_energy_numeric(unit_well, n)
        assert numeric == pytest.approx(qc_energy_closed(unit_well, n), rel=1e-8)

    def test_box_ground_level(self, box):
        scales = derive_scales(box)
        assert qc_energy_numeric(box, 1) == pytest.approx(
            scales.kinetic_scale * 0.25, rel=1e-10
        )

    def test_wide_well(self, wide_well):
        assert qc_energy_numeric(wide_well, 3) == pytest.approx(
            qc_energy_closed(wide_well, 3), rel=1e-8
        )

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_si_electron_well(self, n):
        # an electron in a 1 nm well 0.1 eV deep: every energy is far below
        # any absolute tolerance, so only a relative stopping rule resolves it
        electron = PTParameters(9.1093837015e-31, 1.602176634e-20, 1e-9, 1.054571817e-34)
        closed = qc_energy_closed(electron, n)
        assert abs(qc_energy_numeric(electron, n) - closed) <= 1e-12 * closed


def extended_level(params: PTParameters, n: int):
    """Closed-form semiclassical level sqrt(T) (n - 1/2) (sqrt(T) (n - 1/2) + 2 sqrt(V0))
    of the float inputs, in mpmath at the working precision."""
    alpha = mp.pi / (2 * mp.mpf(params.half_width))
    scaled = mp.mpf(params.hbar) * alpha / mp.sqrt(2 * mp.mpf(params.mass)) * (n - mp.mpf(1) / 2)
    return scaled * (scaled + 2 * mp.sqrt(mp.mpf(params.well_depth)))


def extended_action(params: PTParameters, energy: float):
    """Closed-form action (2 pi sqrt(2 m) / alpha) (sqrt(E + V0) - sqrt(V0)) in mpmath."""
    alpha = mp.pi / (2 * mp.mpf(params.half_width))
    depth = mp.mpf(params.well_depth)
    return 2 * mp.pi * mp.sqrt(2 * mp.mpf(params.mass)) / alpha * (
        mp.sqrt(mp.mpf(energy) + depth) - mp.sqrt(depth)
    )


class TestExtendedPrecision:
    # V0 / T from zero and subnormal to 1e30, at L = pi/2 where T = 1/2
    @pytest.mark.parametrize(
        "ratio",
        [0.0, 1e-300, 1e-16, 1e-12, 1e-8, 1e-4, 0.01, 0.75, 1.0, 20.0, 1e4, 1e8, 1e14, 1e20, 1e30],
    )
    def test_action_and_root_to_near_machine_precision(self, ratio):
        params = PTParameters(1.0, 0.5 * ratio, math.pi / 2)
        with mp.workdps(60):
            for n in (1, 5, 20, 1000, 10**6):
                energy = qc_energy_closed(params, n)
                orbit = action(params, energy)
                exact = extended_action(params, energy)
                error = abs(orbit.action - exact)
                assert error <= 1e-13 * exact
                # the reported error bounds the true one, up to rounding
                assert error <= orbit.quadrature_error + 1e-15 * orbit.action
                level = extended_level(params, n)
                assert abs(qc_energy_numeric(params, n) - level) <= 1e-13 * level

    @pytest.mark.parametrize("ratio", [1e12, 1e20, 1e24, 1e40])
    def test_closed_form_without_cancellation(self, ratio):
        # (sqrt(T) (n - 1/2) + sqrt(V0))^2 - V0 loses about eps V0 / E here
        params = PTParameters(1.0, 0.5 * ratio, math.pi / 2)
        with mp.workdps(60):
            for n in (1, 2, 5, 20, 1000):
                assert qc_energy_closed(params, n) == pytest.approx(
                    float(extended_level(params, n)), rel=1e-14
                )


class TestQuadratureFailure:
    # the action reads the rule and qc_energy_numeric reads the action
    # from the module, so patching the module attributes reaches the calls
    def test_inaccurate_action_is_quadrature_error(self, monkeypatch, unit_well):
        # perturbing the odd nodes only moves the fine rule off its step-1/16 sub-rule
        weights = semiclassical._WEIGHTS.copy()
        weights[1::2] *= 1.0 + 1e-6
        monkeypatch.setattr(semiclassical, "_WEIGHTS", weights)
        with pytest.raises(QuadratureError):
            action(unit_well, 1.0)

    def test_unsettled_residual_is_convergence_error(self, monkeypatch, unit_well):
        # the action stays 1e-10 above 2 pi hbar (n - 1/2) = pi whatever the energy,
        # so every factor is 1 - 1e-10, far from 1 within 5e-15
        monkeypatch.setattr(
            semiclassical,
            "action",
            lambda params, energy: ActionEvaluation(math.pi * (1.0 + 1e-10), 0.0),
        )
        with pytest.raises(ConvergenceError, match="did not settle"):
            qc_energy_numeric(unit_well, 1)

    def test_step_to_overflowing_energy_is_convergence_error(self, monkeypatch, unit_well):
        # an action of 1e-300 scales sqrt(T) / 2 by pi / 1e-300, and E_1 overflows
        monkeypatch.setattr(
            semiclassical, "action", lambda params, energy: ActionEvaluation(1e-300, 0.0)
        )
        with pytest.raises(ConvergenceError, match="drives the energy"):
            qc_energy_numeric(unit_well, 1)


# The stop test reads only the quadrature residual, so a start from a wrong
# T costs one more action call but does not move the root.
class TestIndependentOfStart:
    @pytest.mark.parametrize(
        "params",
        [
            PTParameters(1.0, 0.375, math.pi / 2),
            PTParameters(1.0, 0.5, 50 * math.pi),
            PTParameters(1.0, 0.005, math.pi / 2),
            PTParameters(1.0, 0.0, 1.0),
            PTParameters(1.0, 1e4, math.pi / 2),
        ],
        ids=["unit", "wide", "shallow", "box", "V0=1e4"],
    )
    @pytest.mark.parametrize("factor", [1.0 + 1e-6, 1.5])
    def test_wrong_kinetic_scale(self, params, factor, monkeypatch):
        ns = (1, 2, 5, 20, 1000, 10**6)
        roots = [qc_energy_numeric(params, n) for n in ns]
        derive, evaluate = semiclassical.derive_scales, semiclassical.action
        calls = []

        def wrong_kinetic(well):
            scales = derive(well)
            return replace(scales, kinetic_scale=scales.kinetic_scale * factor)

        def counted(well, energy):
            calls.append(energy)
            return evaluate(well, energy)

        monkeypatch.setattr(semiclassical, "derive_scales", wrong_kinetic)
        monkeypatch.setattr(semiclassical, "action", counted)
        for n, root in zip(ns, roots):
            calls.clear()
            assert abs(qc_energy_numeric(params, n) - root) <= 2e-15 * root
            assert len(calls) <= 2


class TestDeviationFromExact:
    @pytest.mark.parametrize(
        "depth,half_width",
        [(0.375, math.pi / 2), (0.5, 50 * math.pi), (0.005, math.pi / 2), (0.0, 1.0), (7.0, 3.0)],
    )
    def test_relative_error_strictly_decreasing(self, depth, half_width):
        params = PTParameters(1.0, depth, half_width)
        previous = None
        for n in range(1, 51):
            exact = levels(params, n).energy_total
            deviation = abs(exact - qc_energy_closed(params, n)) / exact
            if previous is not None:
                assert deviation < previous
            previous = deviation
        assert previous < 0.05  # O(1/n) tail

    def test_structural_decomposition(self, unit_well):
        # E_n^QC = T (n - 1/2)^2 + T lt (n - 1/2) with lt = 2 sqrt(V0/T):
        # fit on the {(n-1/2)^2, (n-1/2), 1} basis and read the weights.
        scales = derive_scales(unit_well)
        lam_tilde = 2.0 * math.sqrt(unit_well.well_depth / scales.kinetic_scale)
        ns = np.arange(1, 11)
        values = np.array([qc_energy_closed(unit_well, int(n)) for n in ns])
        basis = np.vstack([(ns - 0.5) ** 2, ns - 0.5, np.ones_like(ns, dtype=float)]).T
        coeffs, _, _, _ = np.linalg.lstsq(basis, values, rcond=None)
        residual = np.max(np.abs(basis @ coeffs - values))
        assert residual <= 1e-10
        assert coeffs[0] == pytest.approx(scales.kinetic_scale, abs=1e-10)
        assert coeffs[1] == pytest.approx(scales.kinetic_scale * lam_tilde, abs=1e-10)
        assert coeffs[2] == pytest.approx(0.0, abs=1e-10)


def outcome(compute):
    """The float ``compute()`` returns, or the package error it raises."""
    try:
        return compute()
    except PTOscillatorError as error:
        return error


def langer_energy(params: PTParameters, n: int) -> float:
    """The Bohr-Sommerfeld root of the well deepened by T/4, plus T/4.
    T = hbar^2 alpha^2 / (2 m) is computed here, apart from derive_scales,
    with products, which overflow to inf where a power would raise; an
    infinite or NaN depth raises InvalidParameterError."""
    kinetic = params.hbar * params.hbar * (params.alpha * params.alpha) / (2.0 * params.mass)
    return (
        qc_energy_numeric(replace(params, well_depth=params.well_depth + kinetic / 4.0), n)
        + kinetic / 4.0
    )


def langer_pair(params: PTParameters, n: int) -> tuple:
    """The Langer-shifted root and the closed-form level, each a float or
    the package error it raised."""
    closed = outcome(lambda: levels(params, n).energy_total)
    return outcome(lambda: langer_energy(params, n)), closed


def langer_pressure(params: PTParameters, n: int) -> float:
    """-dE_n/dL of the Langer-shifted root: central differences in L at
    relative steps 1e-4 and 5e-5, and one Richardson step on their h^2
    error."""
    length = params.half_width

    def quotient(step: float) -> float:
        upper = langer_energy(replace(params, half_width=length * (1.0 + step)), n)
        lower = langer_energy(replace(params, half_width=length * (1.0 - step)), n)
        return -(upper - lower) / (2.0 * length * step)

    return (4.0 * quotient(5e-5) - quotient(1e-4)) / 3.0


# Langer's shift (Phys. Rev. 51, 669 (1937)) makes Bohr-Sommerfeld exact for
# this shape-invariant well (Cooper, Khare & Sukhatme, Phys. Rep. 251, 267
# (1995)): with V0 + T/4 in place of V0 the quantized action gives
# T (n + lambda/2)^2 - V0 - T/4, so adding T/4 gives T n^2 + T lambda (n - 1/2).
# The root comes from the tanh-sinh action, which shares no derivation with
# spectra.levels.  Measured worst relative difference:
# 1.5e-15 over 3e4 random wells with n up to 1e6.
LANGER_RTOL = 4e-15

moderate = st.floats(min_value=1e-30, max_value=1e30)
full_range = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
depths = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
)


class TestLangerShiftedRoot:
    @pytest.mark.parametrize(
        "params",
        [
            PTParameters(1.0, 0.375, math.pi / 2),
            PTParameters(1.0, 0.5, 50 * math.pi),
            PTParameters(1.0, 0.005, math.pi / 2),
            PTParameters(1.0, 50.0, math.pi / 2),
            PTParameters(1.0, 1e4, math.pi / 2),
            PTParameters(1.0, 0.0, 1.0),
        ],
        ids=["unit", "wide", "shallow", "V0=50", "V0=1e4", "box"],
    )
    @pytest.mark.parametrize("n", [1, 2, 5, 20, 1000, 10**6])
    def test_wells(self, params, n):
        shifted, closed = langer_pair(params, n)
        assert abs(shifted - closed) <= LANGER_RTOL * closed

    # With mass, L and hbar in [1e-30, 1e30] each side returns or both
    # raise, as when 4 V0 / T overflows.
    @given(mass=moderate, depth=depths, half_width=moderate, hbar=moderate,
           n=st.integers(1, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_moderate_scales(self, mass, depth, half_width, hbar, n):
        shifted, closed = langer_pair(PTParameters(mass, depth, half_width, hbar), n)
        raised = [isinstance(side, PTOscillatorError) for side in (shifted, closed)]
        assert raised in ([True, True], [False, False])
        if not any(raised):
            assert abs(shifted - closed) <= LANGER_RTOL * closed

    # Over every float PTParameters accepts each side is finite or a package
    # error, and wherever levels returns the Langer side returns too.  At the
    # extremes levels may raise alone, when its pressure 2 E / L overflows to
    # a NaN total while E is finite (T = 1.3e231, L = 1.8e-97).  Where both
    # return they agree.
    @given(mass=full_range, depth=depths, half_width=full_range, hbar=full_range,
           n=st.integers(1, 10**6))
    @example(mass=3.417985501781692e195, depth=1.79e-271, half_width=3.37e102,
             hbar=8.76e66, n=806826)
    @example(mass=2.8735985554059562e-291, depth=3.977511803505796e218,
             half_width=8.199860413199871e-81, hbar=1.2603851694181118e-123, n=10**6)
    @settings(max_examples=300, deadline=None)
    def test_full_float_range(self, mass, depth, half_width, hbar, n):
        shifted, closed = langer_pair(PTParameters(mass, depth, half_width, hbar), n)
        raised = [isinstance(side, PTOscillatorError) for side in (shifted, closed)]
        for side, error in zip((shifted, closed), raised):
            assert error or math.isfinite(side)
        assert raised[1] or not raised[0]
        if not any(raised):
            assert abs(shifted - closed) <= LANGER_RTOL * closed

    # lambda scaled by 1 + 1e-9 in the closed form moves E_1 by 1e-9 T lambda / 2,
    # 1e-11 relative on the shallow well and more on the others, and the
    # check sees it.
    @pytest.mark.parametrize(
        "params",
        [
            PTParameters(1.0, 0.375, math.pi / 2),
            PTParameters(1.0, 0.5, 50 * math.pi),
            PTParameters(1.0, 0.005, math.pi / 2),
            PTParameters(1.0, 50.0, math.pi / 2),
            PTParameters(1.0, 1e4, math.pi / 2),
        ],
        ids=["unit", "wide", "shallow", "V0=50", "V0=1e4"],
    )
    def test_detects_wrong_lambda(self, params, monkeypatch):
        derive = spectra.derive_scales

        def wrong_lambda(well):
            scales = derive(well)
            lam = scales.lambda_exact * (1.0 + 1e-9)
            return replace(scales, lambda_exact=lam, oscillator_quantum=scales.kinetic_scale * lam)

        monkeypatch.setattr(spectra, "derive_scales", wrong_lambda)
        shifted, closed = langer_pair(params, 1)
        assert abs(shifted - closed) > LANGER_RTOL * closed


# The Langer-shifted root is exact at every L, so its derivative in L checks
# the closed-form pressure, (2/L) E_n - (1/L) T psi (n - 1/2), with no
# reference to the finite-difference oracle, at any level.  The difference
# quotients' step errors, h^2 removed, leave the measured worst relative
# difference 1.1e-11 (V0 = 5e5, n up to 1000).
LANGER_PRESSURE_RTOL = 5e-11

PRESSURE_WELLS = [
    pytest.param(PTParameters(1.0, 0.375, math.pi / 2), id="unit"),
    pytest.param(PTParameters(1.0, 0.5, 50 * math.pi), id="wide"),
    pytest.param(PTParameters(1.0, 0.005, math.pi / 2), id="shallow"),
    pytest.param(PTParameters(1.0, 0.02, math.pi / 2), id="V0=0.02"),
    pytest.param(PTParameters(1.0, 0.05, math.pi / 2), id="V0=0.05"),
    pytest.param(PTParameters(1.0, 50.0, math.pi / 2), id="V0=50"),
    pytest.param(PTParameters(1.0, 1e4, math.pi / 2), id="V0=1e4"),
    pytest.param(PTParameters(1.0, 5e5, math.pi / 2), id="V0=5e5"),
]


class TestLangerShiftedPressure:
    @pytest.mark.parametrize(
        "params", PRESSURE_WELLS + [pytest.param(PTParameters(1.0, 0.0, 1.0), id="box")]
    )
    @pytest.mark.parametrize("n", [*range(1, 11), 20, 100, 1000])
    def test_wells(self, params, n):
        closed = levels(params, n).pressure_total
        assert abs(langer_pressure(params, n) - closed) <= LANGER_PRESSURE_RTOL * closed

    # psi scaled by 1 + 1e-6 moves the ground-state pressure by 1e-8 relative
    # on the shallow well and more on the others, and psi scaled by 0 drops
    # the -(1/L) T psi (n - 1/2) term; the check sees both on every well with
    # V0 > 0.
    @pytest.mark.parametrize("params", PRESSURE_WELLS)
    @pytest.mark.parametrize("factor", [0.0, 1.0 + 1e-6], ids=["dropped", "scaled"])
    def test_detects_wrong_psi(self, params, factor, monkeypatch):
        derive = spectra.derive_scales

        def wrong_psi(well):
            scales = derive(well)
            return replace(scales, psi_factor=scales.psi_factor * factor)

        monkeypatch.setattr(spectra, "derive_scales", wrong_psi)
        closed = levels(params, 1).pressure_total
        assert abs(langer_pressure(params, 1) - closed) > LANGER_PRESSURE_RTOL * closed


# Wells where the action and the level are finite but a slope dI/dE, the
# orbit period summed as m / p on the quadrature nodes, would overflow
# (heavy mass) or underflow to 0 (light mass); the root needs no slope.
PERIOD_RANGE_WELLS = [
    pytest.param(PTParameters(3.417985501781692e195, 1.79e-271, 3.37e102, 8.76e66), id="heavy"),
    pytest.param(
        PTParameters(
            2.8735985554059562e-291, 3.977511803505796e218,
            8.199860413199871e-81, 1.2603851694181118e-123,
        ),
        id="light",
    ),
]


class TestExtremeMasses:
    @pytest.mark.parametrize("params", PERIOD_RANGE_WELLS)
    @pytest.mark.parametrize("n", [1, 3, 806826, 10**6])
    def test_root_matches_closed_form(self, params, n):
        closed = qc_energy_closed(params, n)
        assert abs(qc_energy_numeric(params, n) - closed) <= 1e-13 * closed

    @pytest.mark.parametrize("params", PERIOD_RANGE_WELLS)
    @pytest.mark.parametrize("n", [1, 3, 10**6])
    def test_langer_pressure_matches_levels(self, params, n):
        # the heavy well's pressure 2 E / L underflows to 0 on both sides
        closed = levels(params, n).pressure_total
        assert abs(numerical_pressure(params, n) - closed) <= LANGER_PRESSURE_RTOL * closed
