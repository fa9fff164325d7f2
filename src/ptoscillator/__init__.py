"""Confined trigonometric Poschl-Teller oscillator: exact energy and
pressure spectra, limiting regimes, semiclassical and perturbative
approximations, and an independent finite-difference oracle."""

from .errors import (
    ConvergenceError,
    DomainError,
    InvalidParameterError,
    PTOscillatorError,
    QuadratureError,
    ResourceLimitError,
)
from .limits import LimitExpansion, fp_limit_expansion, ho_limit_expansion
from .oracle import (
    ConvergenceReport,
    GridSpec,
    NumericalSpectrum,
    convergence_study,
    numerical_pressure,
    solve_eigenvalues,
)
from .parameters import DerivedScales, PTParameters, derive_scales, potential
from .perturbation import perturbed_energy
from .semiclassical import (
    ActionEvaluation,
    action,
    qc_energy_closed,
    qc_energy_numeric,
    turning_point,
)
from .spectra import (
    CROSSOVER,
    FP_DOMINATED,
    HO_DOMINATED,
    Levels,
    SpectrumTable,
    levels,
    spectrum_table,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PTOscillatorError",
    "InvalidParameterError",
    "DomainError",
    "QuadratureError",
    "ConvergenceError",
    "ResourceLimitError",
    "PTParameters",
    "DerivedScales",
    "derive_scales",
    "potential",
    "Levels",
    "SpectrumTable",
    "levels",
    "spectrum_table",
    "FP_DOMINATED",
    "HO_DOMINATED",
    "CROSSOVER",
    "LimitExpansion",
    "fp_limit_expansion",
    "ho_limit_expansion",
    "ActionEvaluation",
    "turning_point",
    "action",
    "qc_energy_closed",
    "qc_energy_numeric",
    "perturbed_energy",
    "GridSpec",
    "NumericalSpectrum",
    "ConvergenceReport",
    "solve_eigenvalues",
    "numerical_pressure",
    "convergence_study",
]
