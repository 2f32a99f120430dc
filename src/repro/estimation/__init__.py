"""Utility/estimation layer: what the server computes from the reports.

The workloads themselves run as scenarios (``repro.run``); this package
holds the server side and the workload data:

* :mod:`repro.estimation.mean` — the Figure 9 population
  (:func:`generate_bimodal_unit_vectors`), the PrivUnit dummy factory
  and the server's mean estimator :func:`mean_estimate_from_run`;
* :mod:`repro.estimation.frequency` — :func:`correct_for_dummies`, the
  ``A_single`` correction applied after ``KaryRandomizedResponse.
  estimate_frequencies``;
* :mod:`repro.estimation.metrics` — error metrics.
"""

from repro.estimation.mean import (
    mean_estimate_from_run,
    MeanEstimationResult,
    generate_bimodal_unit_vectors,
    make_dummy_factory,
    true_mean,
)
from repro.estimation.frequency import correct_for_dummies
from repro.estimation.metrics import (
    max_absolute_error,
    mean_squared_error,
    squared_l2_error,
)

__all__ = [
    "MeanEstimationResult",
    "generate_bimodal_unit_vectors",
    "make_dummy_factory",
    "mean_estimate_from_run",
    "true_mean",
    "correct_for_dummies",
    "max_absolute_error",
    "mean_squared_error",
    "squared_l2_error",
]
