"""K-class and PULSE instrumental-variable estimators with a linear-SEM lab."""

import importlib
import logging

__version__ = "0.1.0"

# The package's logger prints nothing unless the application configures logging;
# a re-import finds its handler and adds no second one.
_LOGGER = logging.getLogger("pulse_iv")
if not any(isinstance(handler, logging.NullHandler) for handler in _LOGGER.handlers):
    _LOGGER.addHandler(logging.NullHandler())

from .data import (
    CsvSchema,
    Dataset,
    DesignView,
    GramView,
    IdentificationClass,
    ModelPartition,
    center,
    load_csv,
)
from .estimators import (
    EstimateResult,
    EstimatorSpec,
    estimate,
    fuller_kappa,
    liml_kappa,
    modified_tsls,
)
from .inference import (
    TestConfig,
    TestResult,
    WeakInstrumentReport,
    ar_statistic,
    chi2_quantile,
    test_statistic,
    weak_instrument_stat,
)
from .pulse import (
    PulseConfig,
    PulseMessage,
    PulseResult,
    primal_solve,
    pulse_estimate,
)

#: The exports of the SEM sampler and the Monte Carlo harness, imported on
#: first use (PEP 562): ``pulse-iv estimate`` loads neither module.
_LAZY = {
    **dict.fromkeys(
        (
            "InterventionSpec",
            "SemModel",
            "e1_model",
            "e1_superiority_interval",
            "e3_model",
            "population_moments",
            "population_pulse_underid",
            "sem_sample",
            "univariate_model",
            "wcmspe_curve_e1",
            "worst_case_mspe",
            "xi_from_r2",
        ),
        "sem",
    ),
    **dict.fromkeys(
        (
            "ExperimentConfig",
            "ExperimentResult",
            "MseOrder",
            "mse_partial_order",
            "relative_change",
            "rho_norm_multivariate",
            "run_experiment",
        ),
        "experiments",
    ),
}


def __getattr__(name: str):
    if name in ("sem", "experiments"):
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, "sem", "experiments"})


__all__ = [
    "CsvSchema",
    "Dataset",
    "DesignView",
    "EstimateResult",
    "EstimatorSpec",
    "ExperimentConfig",
    "ExperimentResult",
    "GramView",
    "IdentificationClass",
    "InterventionSpec",
    "ModelPartition",
    "MseOrder",
    "PulseConfig",
    "PulseMessage",
    "PulseResult",
    "SemModel",
    "TestConfig",
    "TestResult",
    "WeakInstrumentReport",
    "ar_statistic",
    "center",
    "chi2_quantile",
    "e1_model",
    "e1_superiority_interval",
    "e3_model",
    "estimate",
    "fuller_kappa",
    "liml_kappa",
    "load_csv",
    "modified_tsls",
    "mse_partial_order",
    "population_moments",
    "population_pulse_underid",
    "primal_solve",
    "pulse_estimate",
    "relative_change",
    "rho_norm_multivariate",
    "run_experiment",
    "sem_sample",
    "test_statistic",
    "univariate_model",
    "wcmspe_curve_e1",
    "weak_instrument_stat",
    "worst_case_mspe",
    "xi_from_r2",
]
