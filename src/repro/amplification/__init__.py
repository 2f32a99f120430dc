"""Privacy-amplification bounds: the paper's theorems and the baselines.

Network shuffling (this paper):

* :func:`epsilon_all_stationary` — Theorem 5.3 (``A_all``, ergodic graph);
* :func:`epsilon_all_symmetric` — Theorem 5.4 (``A_all``, k-regular);
* :func:`epsilon_single_stationary` — Theorem 5.5 (``A_single``);
* :func:`epsilon_single_symmetric` — Theorem 5.6;
* approximate-DP liftings of each (Lemma 5.2 clone argument);
* :func:`epsilon_from_report_sizes` — Theorem 6.1 accounting from a
  realized allocation vector ``L``.

Baselines (Table 1):

* :func:`subsampling_epsilon` — amplification by subsampling (Balle et al.);
* :func:`uniform_shuffle_epsilon` — amplification by uniform shuffling
  (Erlingsson et al., SODA'19 scaling);
* :func:`clones_epsilon` — "Hiding Among the Clones"
  (Feldman-McMillan-Talwar, FOCS'21 closed form).

Composition:

* :func:`heterogeneous_advanced_composition` — Kairouz-Oh-Viswanath
  (Equation 6 of the paper) plus basic/advanced composition helpers;
* :class:`PrivacyAccountant` — tracks repeated collections against a
  total ``(eps, delta)`` budget under basic or advanced composition.
"""

from repro.amplification.composition import (
    PrivacyAccountant,
    advanced_composition,
    basic_composition,
    heterogeneous_advanced_composition,
)
from repro.amplification.network_shuffle import (
    NetworkShuffleBound,
    epsilon_all_stationary,
    epsilon_all_symmetric,
    epsilon_from_report_sizes,
    epsilon_one,
    epsilon_single_stationary,
    epsilon_single_symmetric,
    max_delta0_for_clone,
    report_load_l2_bound,
    sum_squared_bound,
)
from repro.amplification.rdp import (
    compose_pure_dp_rdp,
    epsilon_from_report_sizes_rdp,
    rdp_of_pure_dp,
    rdp_to_dp,
)
from repro.amplification.planning import (
    minimum_central_epsilon,
    required_epsilon0,
    required_rounds,
)
from repro.amplification.subsampling import (
    subsampled_epsilon,
    subsampling_epsilon,
)
from repro.amplification.uniform_shuffle import (
    clones_epsilon,
    uniform_shuffle_epsilon,
)

__all__ = [
    "PrivacyAccountant",
    "advanced_composition",
    "basic_composition",
    "heterogeneous_advanced_composition",
    "NetworkShuffleBound",
    "epsilon_all_stationary",
    "epsilon_all_symmetric",
    "epsilon_from_report_sizes",
    "epsilon_one",
    "epsilon_single_stationary",
    "epsilon_single_symmetric",
    "max_delta0_for_clone",
    "report_load_l2_bound",
    "sum_squared_bound",
    "compose_pure_dp_rdp",
    "epsilon_from_report_sizes_rdp",
    "rdp_of_pure_dp",
    "rdp_to_dp",
    "minimum_central_epsilon",
    "required_epsilon0",
    "required_rounds",
    "subsampled_epsilon",
    "subsampling_epsilon",
    "clones_epsilon",
    "uniform_shuffle_epsilon",
]
