"""The documented public API surface of :mod:`repro`.

Everything a programmatic caller — a script, a notebook, or the serving
tier (:mod:`repro.serve`) — needs lives here, by name, with no reach-ins
into private modules:

Operations
    :func:`run`, :func:`bound`, :func:`stationary_bound`, :func:`audit`,
    :func:`sweep` — the five scenario entry points.
Payloads
    :func:`parse_scenario` (dict/JSON -> :class:`Scenario`, typed
    errors), :func:`bound_payload` / :func:`audit_payload` /
    :func:`run_payload` (outcome -> JSON-able dict), and
    :func:`run_summary_payload`, the one builder behind
    ``RunResult.summary()`` and ``RunDigest.summary()``.
Types
    :class:`Scenario`, :class:`RunResult`, :class:`RunDigest`,
    :class:`SweepResult`, :class:`AuditResult`,
    :class:`NetworkShuffleBound`.
Error taxonomy
    :class:`ReproError` and friends, plus :func:`http_status_for` /
    :func:`error_payload` — one exception -> HTTP status -> wire
    payload mapping shared by the CLI and the service.
Cache telemetry
    :func:`cache_stats` / :func:`sampler_stats` — the process-wide
    graph cache and kernel-sampler memo counters the serving tier's
    ``/stats`` reports; :func:`clear_graph_cache` to reset between
    tests.
Exchange kernels
    :func:`backend_info` — which kernel bodies the exchange engine
    resolves to in this process (numba JIT or NumPy);
    :func:`set_require_jit` to make a missing JIT raise
    :class:`BackendUnavailableError` (HTTP 501) instead of silently
    running the NumPy bodies.
Schedule accounting
    :class:`ProfilePolicy` plus :func:`get_profile_policy` /
    :func:`set_profile_policy` / :func:`profile_policy` — the
    process-wide memory budget that decides whether dynamic-schedule
    collision profiles evolve dense, blocked, or blocked-with-spill;
    :func:`profile_stats` / :func:`reset_profile_stats` for the
    out-of-core engine's counters.
Auditor planning
    :func:`resolve_method` / :func:`should_memoize` — the public
    replacements for the auditor's former private heuristics.
Campaign store
    :class:`ResultsStore` / :func:`open_store` — the persistent results
    database behind ``sweep(store=...)`` incremental re-runs;
    :func:`store_aggregate` / :func:`store_diff` for cross-campaign
    queries; :func:`code_version`, the fingerprint results are keyed by.

The scenario registries remain extensible through
:mod:`repro.scenario.builders`; this module is the *stable* surface, so
additions are fine but renames and removals are breaking changes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Union

from repro.amplification.network_shuffle import NetworkShuffleBound
from repro.auditing.auditor import (
    AuditResult,
    resolve_method,
    should_memoize,
)
from repro.exceptions import (
    BackendUnavailableError,
    ExecutionTimeoutError,
    InvalidScenarioError,
    JobNotFoundError,
    ReproError,
    ScheduleRefusedError,
    ValidationError,
    WorkerCrashError,
    error_payload,
    http_status_for,
)
from repro.netsim.kernels import backend_info, set_require_jit
from repro.scenario.auditing import audit
from repro.scenario.cache import GRAPH_CACHE, seed_streams
from repro.scenario.profile import (
    DEFAULT_MEMORY_BUDGET,
    ProfilePolicy,
    get_profile_policy,
    parse_memory_budget,
    profile_policy,
    profile_stats,
    reset_profile_stats,
    set_profile_policy,
)
from repro.scenario.runner import (
    RunResult,
    bound,
    clear_graph_cache,
    run,
    spill_graph,
    stationary_bound,
)
from repro.scenario.spec import Scenario
from repro.scenario.summary import run_summary_payload
from repro.scenario.sweep import (
    PointFailure,
    RunDigest,
    SweepResult,
    digest_run,
    sweep,
)
from repro.store import ResultsStore, code_version, open_store
from repro.store import aggregate as store_aggregate
from repro.store import diff as store_diff

__all__ = [
    "AuditResult",
    "BackendUnavailableError",
    "DEFAULT_MEMORY_BUDGET",
    "ExecutionTimeoutError",
    "InvalidScenarioError",
    "JobNotFoundError",
    "NetworkShuffleBound",
    "PointFailure",
    "ProfilePolicy",
    "ReproError",
    "ResultsStore",
    "RunDigest",
    "RunResult",
    "Scenario",
    "ScheduleRefusedError",
    "SweepResult",
    "ValidationError",
    "WorkerCrashError",
    "attach_spill",
    "audit",
    "audit_payload",
    "backend_info",
    "bound",
    "bound_payload",
    "cache_stats",
    "clear_graph_cache",
    "code_version",
    "digest_run",
    "error_payload",
    "get_profile_policy",
    "http_status_for",
    "open_store",
    "parse_memory_budget",
    "parse_scenario",
    "profile_policy",
    "profile_stats",
    "reset_profile_stats",
    "resolve_method",
    "run",
    "run_payload",
    "run_summary_payload",
    "sampler_stats",
    "seed_streams",
    "set_profile_policy",
    "set_require_jit",
    "should_memoize",
    "spill_graph",
    "stationary_bound",
    "store_aggregate",
    "store_diff",
    "sweep",
]


def parse_scenario(payload: Union[Scenario, str, Mapping[str, Any]]) -> Scenario:
    """Coerce a JSON string or mapping into a validated :class:`Scenario`.

    The one scenario-ingestion path every surface shares: malformed
    input raises :class:`InvalidScenarioError` (HTTP 400) with the same
    message whether it arrived as a CLI file, an HTTP body, or a
    library argument.
    """
    if isinstance(payload, Scenario):
        return payload
    try:
        if isinstance(payload, str):
            return Scenario.from_json(payload)
        if isinstance(payload, Mapping):
            return Scenario.from_dict(payload)
    except json.JSONDecodeError as error:
        raise InvalidScenarioError(
            f"scenario is not valid JSON: {error}"
        ) from None
    except InvalidScenarioError:
        raise
    except ReproError as error:
        raise InvalidScenarioError(f"invalid scenario: {error}") from None
    raise InvalidScenarioError(
        "a scenario must be a Scenario, a JSON object, or a JSON string; "
        f"got {type(payload).__name__}"
    )


def bound_payload(result: NetworkShuffleBound) -> Dict[str, Any]:
    """JSON-able rendering of a closed-form guarantee.

    ``accounting`` describes how ``sum_squared`` was computed for
    dynamic-schedule bounds (strategy, block size, truncation bound); it
    is ``None`` for stationary and single-graph bounds.
    """
    return {
        "epsilon": result.epsilon,
        "delta": result.delta,
        "theorem": result.theorem,
        "epsilon0": result.epsilon0,
        "sum_squared": result.sum_squared,
        "n": result.n,
        "amplification_ratio": result.amplification_ratio,
        "amplified": result.amplified,
        "accounting": (
            None if result.accounting is None else dict(result.accounting)
        ),
    }


def run_payload(result: Union[RunResult, RunDigest]) -> Dict[str, Any]:
    """JSON-able rendering of a run (full result or slim digest).

    Both shapes share one summary builder
    (:func:`run_summary_payload`), so this is the same dict either way.
    """
    return result.summary()


def audit_payload(result: AuditResult) -> Dict[str, Any]:
    """JSON-able rendering of a distinguishing-game audit."""
    return result.summary()


def cache_stats() -> Dict[str, int]:
    """Process-wide graph-cache counters (plus resident bundle count).

    ``builds`` counts generator runs, ``memory_hits``/``disk_hits`` the
    tiers that answered instead; under the single-flight contract a
    warm, repeated workload shows ``hits > builds``.
    """
    counters = GRAPH_CACHE.stats()
    return {
        "builds": counters.builds,
        "memory_hits": counters.memory_hits,
        "disk_hits": counters.disk_hits,
        "requests": counters.requests,
        "resident": len(GRAPH_CACHE),
    }


def sampler_stats() -> Dict[str, int]:
    """Kernel-sampler memo counters summed over resident bundles."""
    return GRAPH_CACHE.kernel_stats()


def attach_spill(directory: Union[str, Path]) -> Path:
    """Attach a standing on-disk graph tier to the process-wide cache.

    The sweep engine's spill machinery as a cache tier: graph builds
    consult ``directory`` for ``.npz`` CSR spills before running the
    generator, and :func:`spill_graph` writes new materializations
    there, so graphs survive process restarts.  Returns the (created)
    directory path.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    GRAPH_CACHE.spill_dir = path
    return path
