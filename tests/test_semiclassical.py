import math

import numpy as np
import pytest

from ptoscillator import (
    BracketingError,
    DomainError,
    InvalidParameterError,
    PTParameters,
    QuadratureError,
    action,
    classical_momentum,
    derive_scales,
    levels,
    qc_energy_closed,
    qc_energy_numeric,
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


class TestClassicalMomentum:
    def test_free_at_origin(self, unit_well):
        assert classical_momentum(unit_well, 0.0, 0.75) == math.sqrt(2 * 0.75)

    def test_vanishes_at_turning_point(self, unit_well):
        x0 = turning_point(unit_well, 0.75)
        assert classical_momentum(unit_well, x0, 0.75) == 0.0

    def test_direct_arithmetic(self, unit_well):
        expected = math.sqrt(2.0 * (0.75 - 0.375 * math.tan(0.5) ** 2))
        assert classical_momentum(unit_well, 0.5, 0.75) == pytest.approx(expected, rel=1e-15)

    def test_forbidden_region_rejected(self, unit_well):
        with pytest.raises(DomainError):
            classical_momentum(unit_well, 1.2, 0.75)  # V(1.2) ~ 2.47 > 0.75

    def test_wall_rejected(self, unit_well):
        with pytest.raises(DomainError):
            classical_momentum(unit_well, unit_well.half_width, 10.0)


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
        with pytest.raises(InvalidParameterError):
            turning_point(unit_well, 0.0)


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
        assert 0.0 < result.turning_point < unit_well.half_width

    def test_strictly_increasing_in_energy(self, unit_well):
        assert action(unit_well, 1.5).action > action(unit_well, 0.75).action

    def test_quantization_at_every_closed_form_level(self, unit_well):
        # quadrature at E_n^QC must return 2 pi hbar (n - 1/2)
        for n in range(1, 21):
            target = 2.0 * math.pi * unit_well.hbar * (n - 0.5)
            enclosed = action(unit_well, qc_energy_closed(unit_well, n)).action
            assert abs(enclosed - target) <= 1e-8 * target

    def test_rejects_nonpositive_energy(self, unit_well):
        with pytest.raises(InvalidParameterError):
            action(unit_well, -1.0)


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


class TestQuadratureFailure:
    # scipy.integrate is imported when the action is evaluated, so
    # patching the module attribute reaches the call
    def test_inaccurate_action_is_quadrature_error(self, monkeypatch, unit_well):
        import scipy.integrate

        monkeypatch.setattr(scipy.integrate, "quad", lambda *args, **kwargs: (1.0, 1e-9))
        with pytest.raises(QuadratureError):
            action(unit_well, 1.0)

    def test_residual_without_sign_change_is_bracketing_error(self, monkeypatch, unit_well):
        import scipy.integrate

        # an action far above 2 pi hbar (n - 1/2) at both ends of the bracket
        monkeypatch.setattr(scipy.integrate, "quad", lambda *args, **kwargs: (1e3, 0.0))
        with pytest.raises(BracketingError):
            qc_energy_numeric(unit_well, 1)


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
