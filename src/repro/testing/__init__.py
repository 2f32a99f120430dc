"""Test equipment that ships with the library.

:mod:`repro.testing.faults` is the spec-driven fault-injection harness
behind the chaos tests and the CI chaos-smoke: it makes a sweep's grid
points raise, kill their worker process, or hang on demand, so the
fault-tolerance machinery (per-point isolation, crash recovery,
poison-point quarantine, incremental checkpointing) is exercised
against *real* failures rather than mocks.

:mod:`repro.testing.reference` holds the reference implementations the
fast paths are tested against: the per-message exchange simulator, the
auditor's per-trial loop and scalar Clopper-Pearson bound, the secure
protocol's per-message realization and the collusion attack's scalar
posterior.

Nothing here is imported by the library's production paths except two
:func:`~repro.testing.faults.maybe_fire` hooks — one per grid point in
the sweep engine (:mod:`repro.scenario.sweep`), one per spilled block in
the profile store (:mod:`repro.scenario.profile`) — and each is a no-op
unless a fault plan is explicitly installed.  No production module
imports :mod:`repro.testing.reference`;
``tests/testing/test_import_boundary.py`` enforces both rules.
"""

from repro.testing.faults import (
    FaultPlan,
    FaultRule,
    InjectedFaultError,
    active_plan,
    inject,
    maybe_fire,
)

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedFaultError",
    "active_plan",
    "inject",
    "maybe_fire",
]
