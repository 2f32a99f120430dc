"""Private frequency estimation over network shuffling.

The "messaging-app analytics" workload from the paper's motivation:
every user holds a categorical value (e.g. a setting or answer), applies
k-ary randomized response, the reports mix over the social graph, and
the untrusted server reconstructs the population histogram.  A scenario
with mechanism ``kary_rr`` and ``choice`` values runs the workload
(``repro.run``); the server inverts the channel with
:meth:`~repro.ldp.randomized_response.KaryRandomizedResponse.
estimate_frequencies` on the delivered payloads, and for ``A_single``
removes the dummy bias with :func:`correct_for_dummies`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError


def correct_for_dummies(
    raw_estimate: np.ndarray, dummy_fraction: float
) -> np.ndarray:
    """Remove the ``A_single`` dummy bias from a debiased histogram.

    Dummies are ``A_ldp(0)`` (Algorithm 2), so after channel inversion
    the observed histogram is ``(1 - f) * true + f * e_0`` where ``f``
    is the dummy fraction.  The server knows ``f`` in expectation (it is
    a property of the graph — :func:`repro.protocols.single_protocol.
    expected_empty_handed_stationary`), or exactly if dummies are
    flagged; either way the correction is the linear inversion below.
    """
    raw_estimate = np.asarray(raw_estimate, dtype=np.float64)
    if not 0.0 <= dummy_fraction < 1.0:
        raise ValidationError(
            f"dummy_fraction must lie in [0, 1), got {dummy_fraction}"
        )
    corrected = raw_estimate.copy()
    corrected[0] -= dummy_fraction
    return corrected / (1.0 - dummy_fraction)
