import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ptoscillator import (
    ConvergenceError,
    DomainError,
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
from ptoscillator import oracle


def closed_energies(params: PTParameters, count: int) -> np.ndarray:
    return levels(params, np.arange(1, count + 1)).energy_total


def superpartner_gaps(s: float) -> np.ndarray:
    """E_n(s) - E_{n-1}(s + 1) for n = 2..10, in units of 2 T s, from the
    oracle's levels of the wells V0 = T s (s - 1) and T (s + 1) s at
    L = pi/2."""
    box = PTParameters(mass=1.0, well_depth=0.0, half_width=math.pi / 2)
    kinetic = box.hbar**2 * box.alpha**2 / (2.0 * box.mass)
    grid = GridSpec(4000, richardson_levels=3, level_count=10)
    well, partner = (
        solve_eigenvalues(replace(box, well_depth=kinetic * t * (t - 1.0)), grid).eigenvalues
        for t in (s, s + 1.0)
    )
    return (well[1:] - partner[:-1]) / (2.0 * kinetic * s)


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

    # a fractional size used to solve a shifted grid, a float count or
    # Richardson depth to end in a TypeError, and True to mean one grid
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(interior_points=4000.5, richardson_levels=2, level_count=3),
            dict(interior_points=4000, richardson_levels=2.0, level_count=3),
            dict(interior_points=4000, richardson_levels=2, level_count=2.5),
            dict(interior_points=4000, richardson_levels=True, level_count=3),
        ],
    )
    def test_non_integer_fields_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            GridSpec(**kwargs)

    def test_numpy_integer_accepted(self):
        assert GridSpec(np.int64(4000)).grid_sequence() == (4000, 8001)

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

    # V0 / T = lambda (lambda + 2) / 4 runs from 2e-3 to 10, plus 2550.  The
    # wall adds an error term h^q, q = sqrt(1 + 4 V0 / T), which leads the
    # bulk h^2 for V0 / T < 3/4; the measured worst error at these points
    # is 5.6e-11, and 1.8e-6 with h^2/h^4 weights.
    @pytest.mark.parametrize("lam_target", [0.004, 0.01, 0.04, 0.1, 0.3, 1.0, 2.3, 5.4, 100.0])
    def test_mutual_validation_across_regimes(self, lam_target):
        kinetic = 0.5  # L = pi/2
        depth = kinetic * lam_target * (lam_target + 2) / 4.0
        params = PTParameters(mass=1.0, well_depth=depth, half_width=math.pi / 2)
        spectrum = solve_eigenvalues(params, GridSpec(4000, richardson_levels=3, level_count=10))
        expected = closed_energies(params, 10)
        assert np.max(np.abs(spectrum.eigenvalues - expected) / expected) <= 1e-6

    # The refined grids take each level from a certified Rayleigh quotient,
    # so the extrapolated energies are not held at the bisection tolerance;
    # measured worst errors: wide 1.9e-12, box 2.0e-12, V0 = 50 1.6e-12,
    # V0 = 1e4 8.8e-13, V0 = 5e5 2.0e-12 (with the first grid bisected
    # 4.7e-11, 7.0e-12, 1.3e-11, 3.7e-10 and 1.1e-9).  For 3/4 <= V0 / T <
    # 15/4 the wall term h^q, 2 <= q < 4, is removed in place of h^4, and at
    # the unit well's q = 2, where the two make an h^2 log h term, h^2 twice:
    # V0 / T = 0.75, 0.8 and 1 measure 4.0e-11, 2.1e-11 and 5.7e-11, against
    # 7.0e-9, 4.6e-9 and 8.5e-10 with h^2 and h^4 removed.
    @pytest.mark.parametrize(
        "well, bound",
        [
            ("wide_well", 5e-10),
            ("box", 1e-10),
            (PTParameters(mass=1.0, well_depth=50.0, half_width=math.pi / 2), 2e-10),
            (PTParameters(mass=1.0, well_depth=1e4, half_width=math.pi / 2), 4e-9),
            (PTParameters(mass=1.0, well_depth=5e5, half_width=math.pi / 2), 1e-8),
            ("unit_well", 1e-10),
            (PTParameters(mass=1.0, well_depth=0.4, half_width=math.pi / 2), 1e-10),
            (PTParameters(mass=1.0, well_depth=0.5, half_width=math.pi / 2), 1e-10),
        ],
        ids=["wide", "box", "V0=50", "V0=1e4", "V0=5e5", "V0/T=0.75", "V0/T=0.8", "V0/T=1"],
    )
    def test_three_grid_accuracy(self, request, well, bound):
        params = request.getfixturevalue(well) if isinstance(well, str) else well
        spectrum = solve_eigenvalues(params, GridSpec(4000, richardson_levels=3, level_count=10))
        expected = closed_energies(params, 10)
        assert np.max(np.abs(spectrum.eigenvalues - expected) / expected) <= bound

    # The first grid refined from the closed-form levels carries no
    # bisection floor: the measured worst is 1.9e-12 (wide), 8.8e-13
    # (V0 = 1e4) and 2.0e-12 (V0 = 5e5) from N = 4000, and 7.3e-13, 6.2e-13
    # and 2.0e-12 from N = 3999, against 4.7e-11, 3.7e-10 and 1.1e-9 from
    # N = 4000 and 1.4e-10, 1.0e-10 and 3.0e-9 from N = 3999 with the first
    # grid bisected.
    @pytest.mark.parametrize(
        "well",
        [
            "wide_well",
            PTParameters(mass=1.0, well_depth=1e4, half_width=math.pi / 2),
            PTParameters(mass=1.0, well_depth=5e5, half_width=math.pi / 2),
        ],
        ids=["wide", "V0=1e4", "V0=5e5"],
    )
    def test_closed_form_centred_accuracy(self, request, well):
        params = request.getfixturevalue(well) if isinstance(well, str) else well
        expected = closed_energies(params, 10)
        for n_points in (4000, 3999):
            grid = GridSpec(n_points, richardson_levels=3, level_count=10)
            spectrum = solve_eigenvalues(params, grid)
            assert np.max(np.abs(spectrum.eigenvalues - expected) / expected) <= 1e-11

    # Level 1001 on 4000 nodes lies 5.0 % below its closed-form energy, many
    # level spacings away, so the certificate rejects the closed-form
    # centres of both blocks and the first grid is solved by index.
    def test_uncertified_window_falls_back_to_index_solve(self, unit_well):
        grid = GridSpec(4000, richardson_levels=1, level_count=1001)
        spectrum = solve_eigenvalues(unit_well, grid)
        expected = oracle._fd_levels(unit_well, 4000, 1, 1001)[0]
        assert np.array_equal(spectrum.eigenvalues, expected)

    def test_wall_exponent_rule(self, request):
        # the oracle solves the indicial equation itself; 2 s - 1 = 1 + lambda,
        # and the two smallest of q, 2 and 4 lead
        for well in ("wide_well", "box"):
            assert oracle._wall_exponents(request.getfixturevalue(well)) == (2, 4)
        assert oracle._wall_exponents(request.getfixturevalue("unit_well")) == (2, 2)
        shallow = request.getfixturevalue("shallow_well")
        exponent, bulk = oracle._wall_exponents(shallow)
        assert exponent == pytest.approx(1.0 + derive_scales(shallow).lambda_exact, rel=1e-14)
        assert bulk == 2
        # V0 / T = 2, q = 3
        middle = PTParameters(mass=1.0, well_depth=1.0, half_width=math.pi / 2)
        assert oracle._wall_exponents(middle) == pytest.approx((2, 3), rel=1e-15)

    # Shape invariance, with no closed form: the well of V0 = T s (s - 1)
    # and its superpartner of V0 = T (s + 1) s share their levels, so
    # E_n(s) - E_{n-1}(s + 1) = 2 T s for n >= 2.  Measured worst over
    # levels 2-10: 2.5e-10 of 2 T s at s = 1.2.  With the weights of h^2 and
    # h^4 on every well in place of the wall term's, s = 1.02, 1.2 and 1.5
    # read 5.6e-5, 2.6e-5 and 2.6e-7.
    @pytest.mark.parametrize("s", [1.02, 1.2, 1.5, 3.3, 10.0])
    def test_superpartner_levels_shift_by_2ts(self, s):
        assert np.max(np.abs(superpartner_gaps(s) - 1.0)) <= 1e-9

    @pytest.mark.parametrize("s", [1.02, 1.2, 1.5])
    def test_superpartner_check_detects_wrong_exponents(self, s, monkeypatch):
        monkeypatch.setattr(oracle, "_wall_exponents", lambda params: (2, 4))
        assert np.max(np.abs(superpartner_gaps(s) - 1.0)) > 1e-9

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

    # The 64-node spacing, 0.048, exceeds the deep well's oscillator length,
    # 0.032, and the extrapolation of grids 64, 129 and 259 puts level 10
    # below level 9
    def test_unordered_eigenvalues_are_convergence_error(self):
        params = PTParameters(mass=1.0, well_depth=5e5, half_width=math.pi / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="not strictly increasing and positive"):
                solve_eigenvalues(params, GridSpec(64, richardson_levels=3, level_count=10))

    def test_grid_beyond_resource_limit(self, unit_well):
        with pytest.raises(ResourceLimitError):
            solve_eigenvalues(unit_well, GridSpec(200_000, richardson_levels=3, level_count=1))


class TestNumericalPressure:
    def test_unit_well_matches_closed_form(self, unit_well):
        numeric = numerical_pressure(unit_well, 1)
        assert numeric == pytest.approx(2.25 / math.pi, rel=1e-8)

    def test_box_homogeneous_spectrum(self):
        params = PTParameters(mass=1.0, well_depth=0.0, half_width=1.0)
        numeric = numerical_pressure(params, 2)
        expected = 2.0 * levels(params, 2).energy_total / params.half_width
        assert numeric == pytest.approx(expected, rel=1e-10)

    def test_wide_well_equation_of_state(self, wide_well):
        numeric = numerical_pressure(wide_well, 1)
        energy = levels(wide_well, 1).energy_total
        s_eff = numeric * wide_well.half_width / energy
        assert s_eff == pytest.approx(1.005, rel=1e-3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_eigenvalue_mode(self, unit_well, n):
        numeric = numerical_pressure(unit_well, n, use_eigenvalues=True)
        closed = levels(unit_well, n).pressure_total
        assert numeric == pytest.approx(closed, rel=1e-5)

    def test_eigenvalue_mode_box(self):
        params = PTParameters(mass=1.0, well_depth=0.0, half_width=1.0)
        numeric = numerical_pressure(params, 1, use_eigenvalues=True)
        assert numeric == pytest.approx(levels(params, 1).pressure_total, rel=1e-5)

    @pytest.mark.parametrize("well", ["unit_well", "wide_well", "shallow_well", "box"])
    def test_eigenvalue_mode_is_grid_derivative(self, request, well):
        # The per-grid Hellmann-Feynman pressure is exactly -dE_h/dL of the
        # level on the N = 1000 grid, so it must match central
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
            numeric = oracle._fd_levels(params, 1000, n, n, vectors=True)[1][0]
            assert numeric == pytest.approx(differenced, rel=2e-7)

    @pytest.mark.parametrize("well", ["unit_well", "wide_well", "shallow_well", "box"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_eigenvalue_mode_accuracy(self, request, well, n):
        # Fixed grid; the measured worst relative error is 5.6e-7 (shallow well).
        params = request.getfixturevalue(well)
        numeric = numerical_pressure(params, n, use_eigenvalues=True)
        assert numeric == pytest.approx(levels(params, n).pressure_total, rel=1e-6)

    # Level 1001 on the N = 4000 grid lies 5.0 % below its closed-form
    # energy, so the certificate rejects that centre, and the grid is solved
    # by index and hands its vectors to the N = 8001 grid.
    def test_uncertified_level_falls_back_to_index_solve(self, unit_well):
        n = 1001
        energy, pressure, seeds = oracle._fd_levels(unit_well, 4000, n, n, vectors=True)
        finer = oracle._fd_levels(unit_well, 8001, n, n, True, centres=energy, seeds=seeds)[1]
        expected = oracle._richardson([pressure[0], finer[0]], oracle._wall_exponents(unit_well))
        assert numerical_pressure(unit_well, n, use_eigenvalues=True) == expected[0]

    # At V0 / T = 2e8 the step at the certified energy of level 1 on the
    # N = 4000 grid meets an exactly zero pivot, that energy being an
    # eigenvalue of the block to working precision, and the certified vector
    # is kept.  Measured error 7.5e-8; it used to raise gtsv info 2000.
    def test_zero_pivot_keeps_certified_vector(self):
        params = PTParameters(mass=1.0, well_depth=1e8, half_width=math.pi / 2)
        numeric = numerical_pressure(params, 1, use_eigenvalues=True)
        assert numeric == pytest.approx(levels(params, 1).pressure_total, rel=1e-6)

    def test_level_above_fixed_grid_is_invalid(self, unit_well):
        # the coarser fixed grid has 4000 nodes
        with pytest.raises(InvalidParameterError, match="cannot request 4001"):
            numerical_pressure(unit_well, 4001, use_eigenvalues=True)


WELLS = ["unit_well", "wide_well", "shallow_well", "box"]


def full_matrix(params: PTParameters, n_points: int):
    """Potential, diagonal and off-diagonal of the finite-difference
    Hamiltonian on all ``n_points`` interior nodes, built here from the
    stencil alone."""
    spacing = 2.0 * params.half_width / (n_points + 1)
    nodes = spacing * (np.arange(1, n_points + 1) - 0.5 * (n_points + 1))
    kinetic = params.hbar**2 / (2.0 * params.mass * spacing**2)
    values = params.well_depth * np.tan(params.alpha * nodes) ** 2
    return values, 2.0 * kinetic + values, np.full(n_points - 1, -kinetic)


def fold(values, diagonal, off_diagonal):
    """Even and odd blocks sliced from the full matrix by the parity fold."""
    half = len(diagonal) // 2
    if len(diagonal) % 2:
        coupling = off_diagonal[:half].copy()
        coupling[-1] *= math.sqrt(2.0)
        even = (values[: half + 1], diagonal[: half + 1], coupling)
        return even, (values[:half], diagonal[:half], off_diagonal[: half - 1])
    even_diagonal = diagonal[:half].copy()
    odd_diagonal = diagonal[:half].copy()
    even_diagonal[-1] += off_diagonal[half - 1]
    odd_diagonal[-1] -= off_diagonal[half - 1]
    inner = off_diagonal[: half - 1]
    return (values[:half], even_diagonal, inner), (values[:half], odd_diagonal, inner)


def bisection_floor(diagonal, off_diagonal) -> float:
    """Twice the default absolute tolerance eps * ||T||_1 of LAPACK's
    bisection, which a block solve and a full-matrix solve each meet."""
    magnitude = np.abs(np.concatenate(([0.0], off_diagonal, [0.0])))
    return 2.0 * np.finfo(float).eps * np.max(np.abs(diagonal) + magnitude[:-1] + magnitude[1:])


class TestParityFold:
    @pytest.mark.parametrize("well", WELLS)
    @pytest.mark.parametrize("n_points", [64, 65, 4000, 4001])
    def test_blocks_equal_fold_of_full_matrix(self, request, well, n_points):
        params = request.getfixturevalue(well)
        values, diagonal, off_diagonal = full_matrix(params, n_points)
        assert np.array_equal(values, values[::-1])
        blocks = oracle._parity_blocks(params, n_points, 1)
        for block, expected in zip(blocks, fold(values, diagonal, off_diagonal)):
            for part, want in zip(block, expected):
                assert np.array_equal(part, want)

    # The even/odd blocks against one solve of the full matrix.
    @pytest.mark.parametrize("well", WELLS)
    @pytest.mark.parametrize("n_points", [64, 65])
    @pytest.mark.parametrize("count", [1, 5, 8, "all"])
    def test_eigenvalues_match_full_matrix(self, request, well, n_points, count):
        from scipy.linalg import eigh_tridiagonal

        params = request.getfixturevalue(well)
        count = n_points if count == "all" else count
        _, diagonal, off_diagonal = full_matrix(params, n_points)
        full = eigh_tridiagonal(
            diagonal, off_diagonal, select="i", select_range=(0, count - 1), eigvals_only=True
        )
        folded = oracle._fd_levels(params, n_points, 1, count)[0]
        assert folded.shape == (count,)
        assert np.max(np.abs(folded - full)) <= bisection_floor(diagonal, off_diagonal)

    @pytest.mark.parametrize("well", WELLS)
    @pytest.mark.parametrize("n_points", [64, 65])
    def test_pressures_match_full_eigenvector(self, request, well, n_points):
        from scipy.linalg import eigh_tridiagonal

        params = request.getfixturevalue(well)
        values, diagonal, off_diagonal = full_matrix(params, n_points)
        for n in range(1, 6):
            energy, vector = eigh_tridiagonal(
                diagonal, off_diagonal, select="i", select_range=(n - 1, n - 1)
            )
            full = 2.0 * (energy[0] - values @ vector[:, 0] ** 2) / params.half_width
            folded = oracle._fd_levels(params, n_points, n, n, vectors=True)[1][0]
            assert folded == pytest.approx(full, rel=1e-6)

    # Windows that do not start at level 1, solved with and without
    # eigenvectors, against the full matrix: energies within the bisection
    # floor, pressures from the full eigenvectors.
    @pytest.mark.parametrize("well", WELLS)
    @pytest.mark.parametrize("n_points", [64, 65])
    @pytest.mark.parametrize("first, last", [(1, 1), (2, 2), (3, 7), (4, 8)])
    def test_level_windows_match_full_matrix(self, request, well, n_points, first, last):
        from scipy.linalg import eigh_tridiagonal

        params = request.getfixturevalue(well)
        values, diagonal, off_diagonal = full_matrix(params, n_points)
        energy, vector = eigh_tridiagonal(
            diagonal, off_diagonal, select="i", select_range=(first - 1, last - 1)
        )
        full = 2.0 * (energy - values @ vector**2) / params.half_width
        energies, pressures, _ = oracle._fd_levels(params, n_points, first, last, vectors=True)
        alone, none, _ = oracle._fd_levels(params, n_points, first, last)
        assert none is None
        assert np.array_equal(alone, energies)
        assert energies.shape == pressures.shape == (last - first + 1,)
        assert np.max(np.abs(energies - energy)) <= bisection_floor(diagonal, off_diagonal)
        np.testing.assert_allclose(pressures, full, rtol=1e-6)


# The finer grid takes each level from inverse iteration at the
# coarser grid's energy, once its Rayleigh quotient is certified.
WINDOWS = [(1, 10), (3, 7)] + [(n, n) for n in range(1, 6)]

# V0 / T from 2e-3 to 1e6 at L = pi/2, where T = 1/2; V0 = 50, 1e4 and 5e5
# are the ratios 100, 2e4 and 1e6
RATIO_WELLS = [
    pytest.param(
        PTParameters(mass=1.0, well_depth=0.5 * ratio, half_width=math.pi / 2),
        id=f"V0/T={ratio:g}",
    )
    for ratio in (2e-3, 1e-2, 0.1, 0.5, 0.75, 1.0, 3.0, 10.0, 100.0, 2e4, 1e6)
]


# Without centres every block is solved by index with the LAPACK calls of
# scipy's eigh_tridiagonal(select="i"), vectors included, so its bits come
# back; the energies alone too, as bisection orders them only at its end.
class TestIndexSolve:
    @pytest.mark.parametrize("well", WELLS + RATIO_WELLS)
    @pytest.mark.parametrize("n_points", [64, 999, 4000])
    @pytest.mark.parametrize("first, last", [(1, 1), (1, 10), (3, 8)])
    def test_bitwise_equal_to_eigh_tridiagonal(self, request, well, n_points, first, last):
        from scipy.linalg import eigh_tridiagonal

        params = request.getfixturevalue(well) if isinstance(well, str) else well
        expected = np.empty(last - first + 1)
        expected_pressures = np.empty_like(expected)
        alone = np.empty_like(expected)
        blocks = oracle._parity_blocks(params, n_points, last)
        for parity, (values, diagonal, off_diagonal) in enumerate(blocks):
            low, high = (first - parity) // 2, (last - 1 - parity) // 2
            if low > high:
                continue
            wanted = slice(2 * low + parity + 1 - first, None, 2)
            window = dict(select="i", select_range=(low, high))
            alone[wanted] = eigh_tridiagonal(diagonal, off_diagonal, eigvals_only=True, **window)
            energy, vector = eigh_tridiagonal(diagonal, off_diagonal, **window)
            expected[wanted] = energy
            expected_pressures[wanted] = 2.0 * (energy - values @ vector**2) / params.half_width
        assert np.array_equal(oracle._fd_levels(params, n_points, first, last)[0], alone)
        energies, pressures, _ = oracle._fd_levels(params, n_points, first, last, vectors=True)
        assert np.array_equal(energies, expected)
        assert np.array_equal(pressures, expected_pressures)


# The Hellmann-Feynman pressure is first order in the vector, so a refined
# block takes one more step at its certified energies for it, and the
# refined pressures are held to the index solve's within 2 floor / L, as the
# energies are within the floor.  The steps are the two numerical_pressure
# takes, from the closed-form levels to N = 4000 (from a ramp only) and
# from there to N = 8001, and 64 -> 129 and 1000 -> 4000, whose centres,
# up to 1.6 % and 1e-4 to 6e-3 off, are farther from the levels than the
# closed form's.  Measured worst: 0.30 of the bound on closed -> 4000
# (V0/T = 1), 0.26 on 4000 -> 8001 (V0/T = 2e-3), 0.20 on 64 -> 129 (box,
# from the coarse vectors) and 0.30 on 1000 -> 4000 (V0/T = 1); without the
# extra step 1430 (1000 -> 4000, V0/T = 100, levels 1-10) and 2190
# (64 -> 129, unit well, from the coarse vectors), as a block certified
# after its first or second step carries a vector only partly converged.
STEPS = [
    pytest.param(well, coarse, fine, id=f"{coarse}-{fine}-{well}")
    for coarse, fine in [(4000, 8001), (1000, 4000), ("closed", 4000)]
    for well in WELLS
] + [
    pytest.param(*well.values, coarse, fine, id=f"{coarse}-{fine}-{well.id}")
    for coarse, fine in [(4000, 8001), (1000, 4000), ("closed", 4000)]
    for well in RATIO_WELLS
] + [pytest.param(well, 64, 129, id=f"64-129-{well}") for well in WELLS]


# the wells whose level 1 on the N = 4000 grid certifies from a ramp after
# two steps, not one
TWO_STEP_GROUND = {
    "wide_well", "shallow_well", "V0/T=0.01", "V0/T=0.1", "V0/T=20000", "V0/T=1e+06"
}


class TestBracketedSolve:
    # From a ramp, and, on the steps to 2 N + 1 nodes, from the coarse grid's
    # index-solve vectors.
    @pytest.mark.parametrize("well, coarse, fine", STEPS)
    @pytest.mark.parametrize("first, last", WINDOWS)
    def test_agrees_with_index_solve(self, request, well, coarse, fine, first, last):
        params = request.getfixturevalue(well) if isinstance(well, str) else well
        if coarse == "closed":
            centres = levels(params, np.arange(first, last + 1)).energy_total
        else:
            centres, _, seeds = oracle._fd_levels(params, coarse, first, last, True)
        energies, pressures, _ = oracle._fd_levels(
            params, fine, first, last, vectors=True, centres=centres
        )
        alone = oracle._fd_levels(params, fine, first, last, centres=centres)[0]
        solves = [(energies, pressures)]
        if coarse != "closed" and fine == 2 * coarse + 1:  # the nodes _interpolated carries
            seeded = oracle._fd_levels(
                params, fine, first, last, vectors=True, centres=centres, seeds=seeds
            )
            solves.append(seeded[:2])
        expected, expected_pressures, _ = oracle._fd_levels(
            params, fine, first, last, vectors=True
        )
        floor = max(bisection_floor(*block[1:]) for block in oracle._parity_blocks(params, fine, 1))
        assert np.array_equal(alone, energies)
        for energies, pressures in solves:
            assert np.max(np.abs(energies - expected)) <= floor
            bound = 2.0 * floor / params.half_width
            assert np.max(np.abs(pressures - expected_pressures)) <= bound

    # No block is solved by index: every block of the first grid, N = 4000,
    # and of the coarser first grids N = 3999 and 2000, certifies from the
    # closed-form levels, and every later block from the grids before it, on
    # the deepest well, V0 / T = 1e6, too.
    @pytest.mark.parametrize("well", WELLS + RATIO_WELLS)
    def test_certified_blocks_skip_index_solve(self, request, well, monkeypatch):
        stebz = oracle._lapack()[0]
        sizes = []

        def recording_stebz(diagonal, off_diagonal, mode, *args):
            if mode == 2:  # by index, as only the index solve calls it
                sizes.append(diagonal.size)
            return stebz(diagonal, off_diagonal, mode, *args)

        params = request.getfixturevalue(well) if isinstance(well, str) else well
        patch_lapack(monkeypatch, stebz=recording_stebz)
        for n_points in (4000, 3999, 2000):
            solve_eigenvalues(params, GridSpec(n_points, richardson_levels=3, level_count=10))
            assert sizes == []
        for n in range(1, 6):
            numerical_pressure(params, n, use_eigenvalues=True)
            assert sizes == []

    # The closed form only centres the first grid, whose certificate accepts
    # an energy from the finite-difference block alone, so closed-form levels
    # 1 % high, one level up or NaN cost at most an index solve.  Measured
    # worst change: 1.1e-9 relative (energies) and 5.8e-8 (pressures).
    @pytest.mark.parametrize(
        "well",
        [
            "unit_well",
            "wide_well",
            pytest.param(
                PTParameters(mass=1.0, well_depth=5e5, half_width=math.pi / 2), id="V0=5e5"
            ),
        ],
    )
    @pytest.mark.parametrize("wrong", ["high", "next", "nan"])
    def test_results_do_not_follow_closed_form(self, request, well, wrong, monkeypatch):
        params = request.getfixturevalue(well) if isinstance(well, str) else well
        grid = GridSpec(4000, richardson_levels=3, level_count=10)
        expected = solve_eigenvalues(params, grid).eigenvalues
        pressure_levels = (1, 2, 5)
        expected_pressures = [numerical_pressure(params, n, True) for n in pressure_levels]
        shift, scale = {"high": (0, 1.01), "next": (1, 1.0), "nan": (0, math.nan)}[wrong]
        calls = []

        def wrong_levels(well_params, n):
            calls.append(n)
            closed = levels(well_params, n + shift)
            return closed._replace(energy_total=closed.energy_total * scale)

        monkeypatch.setattr(oracle, "levels", wrong_levels)
        energies = solve_eigenvalues(params, grid).eigenvalues
        pressures = [numerical_pressure(params, n, True) for n in pressure_levels]
        assert len(calls) == 4
        np.testing.assert_allclose(energies, expected, rtol=1e-8, atol=0.0)
        np.testing.assert_allclose(pressures, expected_pressures, rtol=1e-6, atol=0.0)

    # The coarse grid's vectors carried onto the finer grid are second order
    # approximations of its vectors: their distance falls by about 4 (3.6 to
    # 4.5 measured) when the coarse grid doubles, from an even N and from an
    # odd one, whose even block holds the centre node.
    @pytest.mark.parametrize("well", WELLS)
    @pytest.mark.parametrize("coarse", [64, 65])
    def test_interpolated_vectors_are_second_order(self, request, well, coarse):
        params = request.getfixturevalue(well)
        distances = []
        for size in (coarse, 2 * coarse - 1 if coarse % 2 else 2 * coarse):
            seeds = oracle._fd_levels(params, size, 1, 6, vectors=True)[2]
            fine = oracle._fd_levels(params, 2 * size + 1, 1, 6, vectors=True)[2]
            for parity in (0, 1):
                start = oracle._interpolated(seeds[parity], fine[parity].shape[0], parity)
                start *= np.sign(np.sum(start * fine[parity], axis=0))
                start /= np.linalg.norm(start, axis=0)
                distances.append(np.linalg.norm(start - fine[parity], axis=0))
        assert np.all(distances[0] / distances[2] > 3.0)
        assert np.all(distances[1] / distances[3] > 3.0)

    # Each refined level takes one gtsv solve per step of inverse iteration,
    # and its block tries the certificate after each step: two from a ramp
    # on the first grid, N = 4000, centred by the closed-form levels; one
    # from the N = 4000 vectors on the eigensolve's N = 8001 grid and one
    # from those on its N = 16003 grid.  The pressure, first order in the
    # vector, takes one more step at each certified energy: on its N = 4000
    # grid level 1 alone certifies after one step, except on the wells of
    # TWO_STEP_GROUND, so it takes two or three solves and every other
    # level three; on its N = 8001 grid, from the N = 4000 vectors, two.
    # stein, which runs only in an index solve, is never called.
    @pytest.mark.parametrize("well", WELLS + RATIO_WELLS)
    def test_solves_per_level(self, request, well, monkeypatch):
        _, stein, gtsv = oracle._lapack()
        calls = []

        def recording_stein(diagonal, *args):
            calls.append(("stein", diagonal.size))
            return stein(diagonal, *args)

        def recording_gtsv(lower, diagonal, *args, **kwargs):
            calls.append(("gtsv", diagonal.size))
            return gtsv(lower, diagonal, *args, **kwargs)

        params = request.getfixturevalue(well) if isinstance(well, str) else well
        patch_lapack(monkeypatch, stein=recording_stein, gtsv=recording_gtsv)
        solve_eigenvalues(params, GridSpec(4000, richardson_levels=3, level_count=10))
        # five levels in each block of N = 4000 (2000 and 2000 nodes), of
        # N = 8001 (4001 and 4000 nodes) and of N = 16003 (8002 and 8001 nodes)
        assert calls == (
            [("gtsv", 2000)] * 20
            + [("gtsv", 4001)] * 5 + [("gtsv", 4000)] * 5
            + [("gtsv", 8002)] * 5 + [("gtsv", 8001)] * 5
        )
        for n in range(1, 6):
            calls.clear()
            numerical_pressure(params, n, use_eigenvalues=True)
            steps = 1 if n == 1 and request.node.callspec.id not in TWO_STEP_GROUND else 2
            block = 4001 if n % 2 else 4000
            assert calls == [("gtsv", 2000)] * (steps + 1) + [("gtsv", block)] * 2

    # A window from its block's first eigenvalue, as every block of the
    # ten-level solve and the pressure's of levels 1 and 2, takes one stebz
    # count, at its upper fence, which implies the lower one; a window above
    # it, as the pressure's of levels 3-5, takes a count at each fence.
    # Every refined block reaches the fences once, on the try that
    # certifies it, and no block is solved by index.
    @pytest.mark.parametrize("well", WELLS + RATIO_WELLS)
    def test_sturm_counts_per_block(self, request, well, monkeypatch):
        stebz = oracle._lapack()[0]
        calls = []

        def recording_stebz(diagonal, *args):
            calls.append(diagonal.size)
            return stebz(diagonal, *args)

        params = request.getfixturevalue(well) if isinstance(well, str) else well
        patch_lapack(monkeypatch, stebz=recording_stebz)
        solve_eigenvalues(params, GridSpec(4000, richardson_levels=3, level_count=10))
        assert calls == [2000, 2000, 4001, 4000, 8002, 8001]
        for n in range(1, 6):
            calls.clear()
            numerical_pressure(params, n, use_eigenvalues=True)
            fences = 1 if n <= 2 else 2
            block = 4001 if n % 2 else 4000
            assert calls == [2000] * fences + [block] * fences

    # Why a window from its block's first eigenvalue takes no count at its
    # lower fence: every such block that certifies has no eigenvalue at or
    # below a = theta_first (1 - 1e-3), so T - a I is positive definite and
    # LAPACK's Cholesky dpttrf of it succeeds.  Checked on the ten-level
    # solves from N = 64, 128, 3999 and 4000 (the coarse first grids fall
    # back to the index solve, the grids after them certify) and on the
    # pressures of levels 1 and 2.
    @pytest.mark.parametrize("well", WELLS + RATIO_WELLS)
    def test_certified_first_window_has_nothing_below_lower_fence(
        self, request, well, monkeypatch
    ):
        from scipy.linalg.lapack import dpttrf

        refined = oracle._refined
        checked = []

        def checking(diagonal, off_diagonal, low, *args):
            solution = refined(diagonal, off_diagonal, low, *args)
            if solution is not None and low == 0:
                start = solution[0][0] * (1.0 - 1e-3)
                assert dpttrf(diagonal - start, off_diagonal)[-1] == 0
                checked.append(diagonal.size)
            return solution

        params = request.getfixturevalue(well) if isinstance(well, str) else well
        monkeypatch.setattr(oracle, "_refined", checking)
        for n_points in (64, 128, 3999, 4000):
            sizes = GridSpec(n_points, richardson_levels=3, level_count=10).grid_sequence()
            oracle._grid_levels(params, sizes, 1, 10, False)
        for n in (1, 2):
            numerical_pressure(params, n, use_eigenvalues=True)
        assert len(checked) >= 16  # the 12 blocks of N = 3999 and 4000, 4 of the pressures

    # Every first grid takes the closed-form levels as centres.  On 64 and
    # 128 nodes levels 1-10 lie up to 2.2 % off them, and the certificate
    # rejects both blocks, which are solved by index with their vectors.
    # Those start the next grid's iteration at the index-solved energies,
    # so from 128 nodes every later block certifies; from 64 nodes on the
    # unit well the 129-node grid falls back once more.  On 3999 and 4000
    # nodes every block certifies, on every well of
    # test_certified_blocks_skip_index_solve.  The wide well and V0 / T >= 10
    # still fall back on later grids from 128 nodes.
    @pytest.mark.parametrize(
        "well, n_points, blocks",
        [
            pytest.param("unit_well", 64, [32, 32, 65, 64], id="64-blocks0"),
            pytest.param("unit_well", 3999, [], id="3999-blocks1"),
            pytest.param("unit_well", 4000, [], id="4000-blocks2"),
        ]
        + [
            pytest.param(well, 128, [64, 64], id=f"128-{well}")
            for well in ("unit_well", "shallow_well", "box")
        ]
        + [
            pytest.param(*well.values, 128, [64, 64], id=f"128-{well.id}")
            for well in RATIO_WELLS[:7]  # V0 / T from 2e-3 to 3
        ],
    )
    def test_coarse_first_grid_falls_back_to_index_solve(
        self, request, well, n_points, blocks, monkeypatch
    ):
        stebz = oracle._lapack()[0]
        sizes = []

        def recording_stebz(diagonal, off_diagonal, mode, *args):
            if mode == 2:  # by index, as only the index solve calls it
                sizes.append(diagonal.size)
            return stebz(diagonal, off_diagonal, mode, *args)

        params = request.getfixturevalue(well) if isinstance(well, str) else well
        patch_lapack(monkeypatch, stebz=recording_stebz)
        solve_eigenvalues(params, GridSpec(n_points, richardson_levels=3, level_count=10))
        assert sizes == blocks

    # Centres on the next level of the block, scaled by 1.3, or NaN in each
    # block fail certification, and the index solve's bits come back.
    @pytest.mark.parametrize("well", WELLS)
    @pytest.mark.parametrize("first, last", WINDOWS)
    @pytest.mark.parametrize("wrong", ["shifted", "scaled", "nan"])
    def test_wrong_centres_fall_back_to_index_solve(self, request, well, first, last, wrong):
        params = request.getfixturevalue(well)
        coarse = oracle._fd_levels(params, 4000, first, last + 2)[0]
        centres = coarse[2:] if wrong == "shifted" else coarse[:-2].copy()
        if wrong == "scaled":
            centres *= 1.3
        elif wrong == "nan":
            centres[:2] = np.nan
        energies, pressures, _ = oracle._fd_levels(
            params, 8001, first, last, vectors=True, centres=centres
        )
        expected, expected_pressures, _ = oracle._fd_levels(
            params, 8001, first, last, vectors=True
        )
        assert np.array_equal(energies, expected)
        assert np.array_equal(pressures, expected_pressures)

    # The even block of levels 3..5 centred on levels 1 and 5, or 3 and 7:
    # the discs hold one eigenvalue each, and only the count at the lower,
    # or the upper, fence sees that a wanted level is skipped.  The even
    # block of levels 1..3 centred on levels 3 and 5 starts at the block's
    # first eigenvalue, so it takes no count at its lower fence: the count at
    # its upper fence, 3 where 2 are wanted, rejects every try.
    @pytest.mark.parametrize("well", WELLS)
    @pytest.mark.parametrize(
        "first, placed",
        [
            pytest.param(3, (1, 4, 5), id="lower-1"),
            pytest.param(3, (3, 4, 7), id="upper-7"),
            pytest.param(1, (3, 2, 5), id="lower-from-1"),
        ],
    )
    def test_centres_skipping_a_level_fall_back(self, request, well, first, placed, monkeypatch):
        params = request.getfixturevalue(well)
        exact = oracle._fd_levels(params, 8001, 1, 7)[0]
        centres = exact[np.array(placed) - 1]
        stebz = oracle._lapack()[0]
        calls = []

        def recording_stebz(diagonal, off_diagonal, mode, *args):
            calls.append(("stebz", diagonal.size, mode))
            return stebz(diagonal, off_diagonal, mode, *args)

        patch_lapack(monkeypatch, stebz=recording_stebz)
        energies, pressures, _ = oracle._fd_levels(
            params, 8001, first, first + 2, vectors=True, centres=centres
        )
        monkeypatch.undo()
        expected, expected_pressures, _ = oracle._fd_levels(
            params, 8001, first, first + 2, vectors=True
        )
        assert np.array_equal(energies[::2], expected[::2])
        assert np.array_equal(pressures[::2], expected_pressures[::2])
        if first == 1:  # the even block has 4001 nodes; stebz by index solves it
            even = [call for call in calls if call[1] == 4001]
            assert even == [("stebz", 4001, 1)] * 3 + [("stebz", 4001, 2)]

    # Both centres of the even block on level 1: inverse iteration takes
    # each column alone, so both turn to level 1, and their discs overlap.
    @pytest.mark.parametrize("well", WELLS)
    def test_two_centres_on_one_level_fall_back(self, request, well):
        params = request.getfixturevalue(well)
        expected, expected_pressures, _ = oracle._fd_levels(params, 8001, 1, 3, vectors=True)
        centres = expected.copy()
        centres[2] = expected[0] * (1.0 + 1e-9)
        energies, pressures, _ = oracle._fd_levels(
            params, 8001, 1, 3, vectors=True, centres=centres
        )
        assert np.array_equal(energies[::2], expected[::2])
        assert np.array_equal(pressures[::2], expected_pressures[::2])

    # On the 64 -> 129 step, with centres up to 1.6 % (unit well) and 3.1 %
    # (wide well, level 3) off, these windows pass the discs and the counts
    # at the third and last try, but three steps of inverse iteration from a
    # ramp have only partly converged: the Rayleigh quotients are up to
    # 7.5e-9 (unit well) and 9.4e-9 (wide well) relative off.  The Temple
    # bound rejects them, and the index solve's bits come back.
    @pytest.mark.parametrize("well, first, last", [("unit_well", 1, 10), ("wide_well", 3, 3)])
    def test_temple_bound_rejects_unconverged_vectors(self, request, well, first, last):
        params = request.getfixturevalue(well)
        centres = oracle._fd_levels(params, 64, first, last)[0]
        energies, pressures, _ = oracle._fd_levels(
            params, 129, first, last, vectors=True, centres=centres
        )
        expected, expected_pressures, _ = oracle._fd_levels(params, 129, first, last, vectors=True)
        assert np.array_equal(energies, expected)
        assert np.array_equal(pressures, expected_pressures)
        temple = []
        blocks = oracle._parity_blocks(params, 129, last)
        for parity, (_, diagonal, off_diagonal) in enumerate(blocks):
            low, high = (first - parity) // 2, (last - 1 - parity) // 2
            if low <= high:
                wanted = centres[2 * low + parity + 1 - first :: 2]
                temple.append(dense_certificate(diagonal, off_diagonal, low, wanted))
        assert max(temple) > 1.0


def dense_certificate(diagonal, off_diagonal, low: int, centres) -> float:
    """Check, on the dense matrix of one block, that the vectors of three
    steps of inverse iteration at ``centres`` from a ramp, the last try of
    a refined solve without seeds, give disjoint discs inside the fences
    and the right eigenvalue counts, and return the largest Temple bound
    rho^2 / delta in units of eps ||T||_inf / 16."""
    size = diagonal.size
    matrix = np.diag(diagonal) + np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1)
    vector = np.empty((size, centres.size))
    for j, centre in enumerate(centres):
        column = np.arange(1.0, size + 1)
        for _ in range(3):
            column = np.linalg.solve(matrix - centre * np.eye(size), column)
            column /= np.linalg.norm(column)
        vector[:, j] = column
    energies = np.einsum("ij,ij->j", vector, matrix @ vector)
    eps = np.finfo(float).eps
    radius = np.linalg.norm(matrix @ vector - energies * vector, axis=0) + 4.0 * eps * (
        np.linalg.norm(diagonal[:, None] * vector, axis=0)
        + 2.0 * np.abs(off_diagonal).max()
        + np.abs(energies)
    )
    start, stop = energies[0] * (1.0 - 1e-3), energies[-1] * (1.0 + 1e-3)
    lower, upper = energies - radius, energies + radius
    assert start < lower[0] and upper[-1] < stop and np.all(upper[:-1] < lower[1:])
    spectrum = np.linalg.eigvalsh(matrix)
    assert np.sum(spectrum <= start) == low
    assert np.sum(spectrum <= stop) == low + energies.size
    gap = np.minimum(energies - np.append(start, upper[:-1]), np.append(lower[1:], stop) - energies)
    return np.max(radius**2 / gap) / (eps * np.abs(matrix).sum(axis=1).max() / 16.0)


# The certificate bounds the rounding of T u with ||D u||_2 + 2 max|e_i|
# in place of || |T| |u| ||_2, D the diagonal: |T| |u| = |D| |u| + |E| |u|,
# E the off-diagonal part, whose 2-norm is at most 2 max|e_i|, so for a unit
# u the bound is never smaller.  Blocks like the oracle's: V_i = k r_i >= 0,
# 2 k + V_i on the diagonal, -k off it and, for an odd grid's even block,
# -sqrt(2) k last; r_i up to 1e8, past the V0 / T = 2e6 of the deepest CI
# well.  The two norms are compared up to their own rounding, size eps.
@given(
    kinetic=st.floats(min_value=1e-100, max_value=1e100),
    rows=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1e8), st.floats(min_value=-1.0, max_value=1)),
        min_size=2,
        max_size=200,
    ),
    odd=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_rounding_bound_covers_absolute_product(kinetic, rows, odd):
    ratios, entries = (np.array(column) for column in zip(*rows))
    length = math.sqrt(entries @ entries)
    assume(length > 0.0)
    column = entries / length
    diagonal = kinetic * (2.0 + ratios)
    off_diagonal = np.full(column.size - 1, -kinetic)
    if odd:
        off_diagonal[-1] *= math.sqrt(2.0)
    product = np.abs(diagonal * column)
    product[:-1] += np.abs(off_diagonal * column[1:])
    product[1:] += np.abs(off_diagonal * column[:-1])
    bound = np.linalg.norm(diagonal * column) + 2.0 * np.abs(off_diagonal).max()
    assert np.linalg.norm(product) <= bound * (1.0 + column.size * np.finfo(float).eps)


LAPACK_NAMES = ("stebz", "stein", "gtsv")  # in the order _lapack() returns them


def patch_lapack(monkeypatch, **replacements) -> None:
    """Give the oracle the routines of ``_lapack()`` with those named in
    ``replacements`` swapped for the given ones."""
    routines = dict(zip(LAPACK_NAMES, oracle._lapack()))
    routines.update(replacements)
    monkeypatch.setattr(oracle, "_lapack", lambda: tuple(routines.values()))


def fail_lapack_routine(monkeypatch, name: str, above: int = 0) -> None:
    """Make the oracle's LAPACK routine ``name`` report info = 1 at its
    first call on a block of more than ``above`` nodes, so a solve that
    retried the block another way would succeed."""
    routine = oracle._lapack()[LAPACK_NAMES.index(name)]
    failed = []

    def failing(*args, **kwargs):
        result = routine(*args, **kwargs)
        size = args[1 if name == "gtsv" else 0].size  # gtsv takes the diagonal second
        if failed or size <= above:
            return result
        failed.append(size)
        return (*result[:-1], 1)

    patch_lapack(monkeypatch, **{name: failing})


class TestBracketedSolverFailure:
    # The blocks of the first grid, N = 4000, have 2000 nodes, so it is
    # solved and the routine fails in the refined solve of N = 8001.
    @pytest.mark.parametrize("routine", ["stebz", "gtsv"])
    def test_pressure_is_convergence_error(self, unit_well, monkeypatch, routine):
        fail_lapack_routine(monkeypatch, routine, above=2000)
        with pytest.raises(ConvergenceError, match=f"eigensolver failed: {routine}"):
            numerical_pressure(unit_well, 1, use_eigenvalues=True)

    def test_eigensolve_is_convergence_error(self, unit_well, monkeypatch):
        fail_lapack_routine(monkeypatch, "stebz", above=2000)
        with pytest.raises(ConvergenceError, match="eigensolver failed: stebz"):
            solve_eigenvalues(unit_well, GridSpec(4000, 2, 3))

    # The closed form does not certify the 64-node first grid, so the first
    # stebz call is the index solve's (range 2, block order) on its 32-node
    # even block, and the first stein call follows it.
    @pytest.mark.parametrize("routine", ["stebz", "stein"])
    def test_index_solve_is_convergence_error(self, unit_well, monkeypatch, routine):
        fail_lapack_routine(monkeypatch, routine)
        with pytest.raises(ConvergenceError, match=f"eigensolver failed: {routine} info 1") as error:
            solve_eigenvalues(unit_well, GridSpec(64, 3, 10))
        assert error.traceback[-1].name == "_indexed"


class TestLapackLoader:
    def test_missing_extension_is_import_error(self, tmp_path, monkeypatch):
        import scipy

        monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
        with pytest.raises(ImportError, match="_flapack"):
            oracle._lapack.__wrapped__()


class TestConvergenceStudy:
    def test_unit_well_is_second_order(self, unit_well):
        report = convergence_study(unit_well, [500, 1000, 2000], level_count=3)
        assert np.all(np.abs(report.slopes - 2.0) <= 0.2)
        assert report.errors.shape == (3, 3)

    def test_box_is_second_order(self):
        params = PTParameters(mass=1.0, well_depth=0.0, half_width=1.0)
        report = convergence_study(params, [500, 1000, 2000], level_count=3)
        assert np.all(np.abs(report.slopes - 2.0) <= 0.2)

    # Roache's observed order is compared with the leading exponent: 2,
    # or sqrt(1 + 4 V0 / T) = sqrt(1.04) for the shallow well's V0 / T = 0.01
    def test_expected_order(self, unit_well, shallow_well):
        assert convergence_study(unit_well, [500, 1000], level_count=1).expected_order == 2.0
        report = convergence_study(shallow_well, [500, 1000], level_count=1)
        assert report.expected_order == pytest.approx(math.sqrt(1.04), rel=1e-14)

    # Each grid is centred on the closed-form levels, the very values the
    # errors are measured against, but the certificate accepts an energy
    # from the finite-difference block alone: centres 1 % high, one level up
    # or NaN cost at most an index solve, whose energies lie within the
    # bisection floor of the certified ones (measured worst: 0.23 of it).
    @pytest.mark.parametrize(
        "well",
        [
            "unit_well",
            "wide_well",
            pytest.param(
                PTParameters(mass=1.0, well_depth=5e5, half_width=math.pi / 2), id="V0=5e5"
            ),
        ],
    )
    @pytest.mark.parametrize("wrong", ["high", "next", "nan"])
    def test_errors_do_not_follow_centres(self, request, well, wrong, monkeypatch):
        params = request.getfixturevalue(well) if isinstance(well, str) else well
        sizes = [500, 1000, 2000]
        expected = convergence_study(params, sizes, level_count=3).errors
        shift, scale = {"high": (0, 1.01), "next": (1, 1.0), "nan": (0, math.nan)}[wrong]
        fd_levels = oracle._fd_levels
        calls = []

        def wrong_centres(well_params, n_points, first, last, *args, centres, **kwargs):
            calls.append(n_points)
            closed = levels(well_params, np.arange(first + shift, last + shift + 1))
            centres = closed.energy_total * scale
            return fd_levels(well_params, n_points, first, last, *args, centres=centres, **kwargs)

        monkeypatch.setattr(oracle, "_fd_levels", wrong_centres)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errors = convergence_study(params, sizes, level_count=3).errors
        assert calls == sizes
        floors = [
            max(bisection_floor(*block[1:]) for block in oracle._parity_blocks(params, size, 1))
            for size in sizes
        ]
        assert np.all(np.abs(errors - expected) <= np.array(floors)[:, None])

    # the rows of errors follow the grids in ascending order of size
    def test_grid_ordering_normalized(self, unit_well):
        report = convergence_study(unit_well, [2000, 500, 1000], level_count=1)
        ordered = convergence_study(unit_well, [500, 1000, 2000], level_count=1)
        assert report.errors.tobytes() == ordered.errors.tobytes()
        assert report.slopes.tobytes() == ordered.slopes.tobytes()

    def test_requires_two_grids(self, unit_well):
        with pytest.raises(InvalidParameterError):
            convergence_study(unit_well, [1000], level_count=2)

    def test_requires_minimum_size(self, unit_well):
        with pytest.raises(InvalidParameterError):
            convergence_study(unit_well, [32, 1000], level_count=2)

    def test_grid_beyond_resource_limit(self, unit_well):
        with pytest.raises(ResourceLimitError):
            convergence_study(unit_well, [64, 300_000], level_count=1)

    def test_duplicate_sizes_rejected(self, unit_well):
        with pytest.raises(InvalidParameterError, match="distinct"):
            convergence_study(unit_well, [64, 64], level_count=1)

    def test_requires_a_level(self, unit_well):
        with pytest.raises(InvalidParameterError):
            convergence_study(unit_well, [500, 1000], level_count=0)

    def test_non_integer_size_rejected(self, unit_well):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            convergence_study(unit_well, [500.5, 1000], level_count=2)


class TestNonFiniteHamiltonian:
    # A box with T = 1e305, whose closed-form levels, E_5 = 2.5e306, are
    # finite, so the first grid's centres are found; on 4000 nodes the
    # kinetic scale hbar^2 / (2 m h^2) overflows to inf.
    params = PTParameters(mass=1.0, well_depth=0.0, half_width=1.0, hbar=2.8470501736687084e152)
    message = "finite-difference Hamiltonian on 4000 points leaves the floating-point range"

    def test_eigensolve_is_domain_error(self):
        with pytest.raises(DomainError, match=self.message):
            solve_eigenvalues(self.params, GridSpec(4000, richardson_levels=3, level_count=5))

    def test_pressure_is_domain_error(self):
        with pytest.raises(DomainError, match=self.message):
            numerical_pressure(self.params, 1, use_eigenvalues=True)


class TestEigensolverFailure:
    # the first stebz call reports info = 1: a Sturm count of the
    # certificate on the first grid, 64 or 4000 nodes
    @pytest.fixture(autouse=True)
    def failing_eigensolver(self, monkeypatch):
        fail_lapack_routine(monkeypatch, "stebz")

    def test_eigensolve_is_convergence_error(self, unit_well):
        with pytest.raises(ConvergenceError, match="eigensolver failed"):
            solve_eigenvalues(unit_well, GridSpec(64))

    def test_pressure_is_convergence_error(self, unit_well):
        with pytest.raises(ConvergenceError, match="eigensolver failed"):
            numerical_pressure(unit_well, 1, use_eigenvalues=True)


class TestNonFiniteResult:
    # A solver that returns NaN must not pass the positivity and ordering
    # checks, where every comparison with NaN is False, whether one, two
    # or three grids are extrapolated; the pressure extrapolates two grids
    # through the same routine.
    @pytest.fixture(autouse=True)
    def nan_solver(self, monkeypatch):
        def solve(params, n_points, first, last, vectors=False, centres=None, seeds=None):
            nan = np.full(last - first + 1, np.nan)
            return nan, (nan.copy() if vectors else None), (None, None)

        monkeypatch.setattr(oracle, "_fd_levels", solve)

    def test_eigensolve_is_convergence_error(self, unit_well):
        for richardson_levels in (1, 2, 3):
            with pytest.raises(ConvergenceError, match="not finite"):
                solve_eigenvalues(unit_well, GridSpec(64, richardson_levels, level_count=3))

    def test_pressure_is_convergence_error(self, unit_well):
        with pytest.raises(ConvergenceError, match="not finite"):
            numerical_pressure(unit_well, 1, use_eigenvalues=True)
