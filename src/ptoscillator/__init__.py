"""Confined trigonometric Poschl-Teller oscillator: exact energy and
pressure spectra, limiting regimes, semiclassical and perturbative
approximations, and an independent finite-difference oracle.

Each exported name is imported from its submodule on first access
(PEP 562), so ``import ptoscillator`` loads no numpy and a caller pays
only for the submodules whose names it reads.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it, in __all__'s order
_EXPORTS = {
    "PTOscillatorError": "errors",
    "InvalidParameterError": "errors",
    "DomainError": "errors",
    "QuadratureError": "errors",
    "ConvergenceError": "errors",
    "ResourceLimitError": "errors",
    "PTParameters": "parameters",
    "DerivedScales": "parameters",
    "derive_scales": "parameters",
    "potential": "parameters",
    "Levels": "spectra",
    "SpectrumTable": "spectra",
    "levels": "spectra",
    "spectrum_table": "spectra",
    "FP_DOMINATED": "spectra",
    "HO_DOMINATED": "spectra",
    "CROSSOVER": "spectra",
    "LimitExpansion": "limits",
    "fp_limit_expansion": "limits",
    "ho_limit_expansion": "limits",
    "ActionEvaluation": "semiclassical",
    "turning_point": "semiclassical",
    "action": "semiclassical",
    "qc_energy_closed": "semiclassical",
    "qc_energy_numeric": "semiclassical",
    "perturbed_energy": "perturbation",
    "GridSpec": "oracle",
    "NumericalSpectrum": "oracle",
    "ConvergenceReport": "oracle",
    "solve_eigenvalues": "oracle",
    "numerical_pressure": "oracle",
    "convergence_study": "oracle",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
