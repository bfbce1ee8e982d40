"""The Monte Carlo designs: each one's CSV parameter columns, default
estimators and the config fields it reads.

The harness (:mod:`pulse_iv.experiments`) runs them; the command line lists
their names from here without importing it.
"""

from __future__ import annotations

from typing import NamedTuple


class _Design(NamedTuple):
    """A design's CSV parameter columns, its default estimators, and the
    :class:`~pulse_iv.experiments.ExperimentConfig` fields it reads besides :data:`_EVERY_DESIGN_READS`.

    ``robustness-e1`` runs no estimators and writes one row per repetition and
    ``kappa``, so its ``columns`` are all of its CSV columns.
    """

    columns: tuple[str, ...]
    estimators: tuple[str, ...]
    reads: tuple[str, ...]


#: The config fields every design reads.
_EVERY_DESIGN_READS = ("design", "repetitions", "master_seed")

#: Every design; :meth:`~pulse_iv.experiments.ExperimentConfig.__post_init__`
#: refuses a field that its design does not read unless it is left at its default.
_GRID_DESIGNS: dict[str, _Design] = {
    "univariate": _Design(
        ("q", "rho", "r2", "n"),
        ("ols", "tsls", "fuller:1", "fuller:4", "pulse"),
        ("estimators", "p_min", "q_values", "rho_values", "r2_values", "n_values",
         "allow_extensions"),
    ),
    "mv-random": _Design(
        ("model_index", "rho_norm"),
        ("ols", "fuller:1", "fuller:4", "pulse"),
        ("estimators", "p_min", "n_models", "sample_size"),
    ),
    "mv-fixed": _Design(
        ("eta", "phi1", "phi2", "rho_norm", "model_index"),
        ("ols", "fuller:1", "fuller:4", "pulse"),
        ("estimators", "p_min", "n_models", "sample_size", "noise_triples"),
    ),
    "robustness-e1": _Design(("rep", "kappa", "estimate", "wcmspe"), (), ("n_values",)),
    "underid-e3": _Design(("n",), ("pulse", "modified-tsls"), ("estimators", "p_min", "n_values")),
}

DESIGNS = tuple(_GRID_DESIGNS)
