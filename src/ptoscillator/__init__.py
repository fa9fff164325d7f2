"""Confined trigonometric Poschl-Teller oscillator: exact energy and
pressure spectra, limiting regimes, semiclassical and perturbative
approximations, and an independent finite-difference oracle."""

from .errors import (
    BracketingError,
    ConvergenceError,
    DomainError,
    InvalidParameterError,
    PTOscillatorError,
    QuadratureError,
    ResourceLimitError,
)
from .limits import (
    FP_REGIME,
    HO_REGIME,
    ApproximationReport,
    LimitExpansion,
    fp_limit_expansion,
    ho_limit_expansion,
    limit_equation_of_state,
)
from .oracle import (
    ConvergenceReport,
    GridSpec,
    NumericalSpectrum,
    convergence_study,
    numerical_pressure,
    solve_eigenvalues,
)
from .parameters import DerivedScales, PTParameters, derive_scales, potential
from .perturbation import PerturbedEnergy, perturbed_energy, potential_series_eval
from .semiclassical import (
    ActionEvaluation,
    action,
    classical_momentum,
    qc_energy_closed,
    qc_energy_numeric,
    turning_point,
)
from .spectra import (
    CROSSOVER,
    FP_DOMINATED,
    HO_DOMINATED,
    EnergyLevel,
    PressureLevel,
    RegimeRatio,
    SpectrumRow,
    SpectrumTable,
    energy_level,
    pressure_level,
    regime_ratio,
    spectrum_table,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PTOscillatorError",
    "InvalidParameterError",
    "DomainError",
    "QuadratureError",
    "BracketingError",
    "ConvergenceError",
    "ResourceLimitError",
    "PTParameters",
    "DerivedScales",
    "derive_scales",
    "potential",
    "EnergyLevel",
    "PressureLevel",
    "RegimeRatio",
    "SpectrumRow",
    "SpectrumTable",
    "energy_level",
    "pressure_level",
    "regime_ratio",
    "spectrum_table",
    "FP_DOMINATED",
    "HO_DOMINATED",
    "CROSSOVER",
    "FP_REGIME",
    "HO_REGIME",
    "LimitExpansion",
    "ApproximationReport",
    "fp_limit_expansion",
    "ho_limit_expansion",
    "limit_equation_of_state",
    "ActionEvaluation",
    "classical_momentum",
    "turning_point",
    "action",
    "qc_energy_closed",
    "qc_energy_numeric",
    "PerturbedEnergy",
    "potential_series_eval",
    "perturbed_energy",
    "GridSpec",
    "NumericalSpectrum",
    "ConvergenceReport",
    "solve_eigenvalues",
    "numerical_pressure",
    "convergence_study",
]
