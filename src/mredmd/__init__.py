"""Koopman operator approximation from partially and non-uniformly sampled
state data.

The pipeline has two steps: per-component Hankel DMD reconstructs the full
state at a common pair of instants from each component's own sampling
schedule, then standard EDMD on the reconstructed pairs yields the Koopman
matrix, its generator, spectra, and trajectory predictions.
"""

__version__ = "0.1.0"

from .dynamics import (
    Ensemble,
    SamplingSchedule,
    VectorField,
    integrate,
    linear_field,
    lorenz_field,
    sample_ensembles,
)
from .edmd import (
    KoopmanModel,
    StatePairEnsemble,
    fit_models,
    generator_spectra,
    predict_models,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    derive_schedules,
    emit_comparison,
    emit_report,
    evaluate_prediction,
    export_ensemble,
    ideal_noise_floor,
    import_ensemble,
    lcm_of_rates,
    run,
    run_sweep,
    simulate,
)
from .hankel import (
    ComponentOperator,
    estimated_components,
    fit_component_operators,
    reconstruct_states,
)
from .linalg import (
    cast_real,
    eigenvalues,
    koopman_fit,
    matrix_exp,
    matrix_log,
    spectrum_distance,
)
from .observables import Dictionary, coordinate_readout, monomial_dictionary

__all__ = [
    "__version__",
    # dynamics
    "Ensemble",
    "SamplingSchedule",
    "VectorField",
    "integrate",
    "linear_field",
    "lorenz_field",
    "sample_ensembles",
    # observables
    "Dictionary",
    "coordinate_readout",
    "monomial_dictionary",
    # linalg
    "cast_real",
    "eigenvalues",
    "koopman_fit",
    "matrix_exp",
    "matrix_log",
    "spectrum_distance",
    # hankel
    "ComponentOperator",
    "estimated_components",
    "fit_component_operators",
    "reconstruct_states",
    # edmd
    "KoopmanModel",
    "StatePairEnsemble",
    "fit_models",
    "generator_spectra",
    "predict_models",
    # experiments
    "ExperimentConfig",
    "ExperimentReport",
    "derive_schedules",
    "emit_comparison",
    "emit_report",
    "evaluate_prediction",
    "export_ensemble",
    "ideal_noise_floor",
    "import_ensemble",
    "lcm_of_rates",
    "run",
    "run_sweep",
    "simulate",
]
