"""One canonical run-summary payload.

``RunResult.summary()`` and ``RunDigest.summary()`` used to hand-mirror
each other; any drift between them silently broke consumers that treat
the summary as a wire format (the CLI's ``--json`` output, sweep tables,
the serving tier's job results).  Both now delegate here, so the two
shapes *cannot* diverge: one builder owns the field names, the ordering,
and the presence rules.

Presence rules
--------------
* The execution scalars (protocol, engine, backend, num_users, rounds,
  dummy_count, elapsed_seconds) are always present.  ``engine`` echoes
  the scenario's deprecated field; ``backend`` records which kernel
  bodies the exchange engine ran (``numba`` or ``numpy``), so archived
  results from differently provisioned hosts stay interpretable.
* The four accounting fields appear together iff a central bound was
  computed (``central_epsilon is not None``).
* ``empirical_epsilon`` appears iff the Theorem 6.1 estimate exists
  (``A_all`` with a pure-DP mechanism).
* The meter aggregates appear together iff the run was metered.
* ``schedule_accounting`` appears iff the bound came from dynamic-
  schedule accounting (strategy, block geometry, truncation bound).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["run_summary_payload"]


def run_summary_payload(
    *,
    protocol: str,
    engine: str,
    num_users: int,
    rounds: int,
    dummy_count: int,
    elapsed_seconds: float,
    central_epsilon: Optional[float] = None,
    central_delta: Optional[float] = None,
    theorem: Optional[str] = None,
    epsilon0: Optional[float] = None,
    empirical_epsilon: Optional[float] = None,
    total_messages_sent: Optional[int] = None,
    max_peak_items: Optional[int] = None,
    schedule_accounting: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build the canonical JSON-able digest of one scenario execution."""
    from repro.netsim.kernels import implementation_label

    payload: Dict[str, Any] = {
        "protocol": protocol,
        "engine": engine,
        "backend": implementation_label(),
        "num_users": int(num_users),
        "rounds": int(rounds),
        "dummy_count": int(dummy_count),
        "elapsed_seconds": round(float(elapsed_seconds), 6),
    }
    if central_epsilon is not None:
        payload.update(
            central_epsilon=central_epsilon,
            central_delta=central_delta,
            theorem=theorem,
            epsilon0=epsilon0,
        )
    if empirical_epsilon is not None:
        payload["empirical_epsilon"] = empirical_epsilon
    if total_messages_sent is not None:
        payload["total_messages_sent"] = int(total_messages_sent)
        payload["max_peak_items"] = (
            None if max_peak_items is None else int(max_peak_items)
        )
    if schedule_accounting is not None:
        payload["schedule_accounting"] = dict(schedule_accounting)
    return payload
