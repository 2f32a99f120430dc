"""Schema equality of the two run summaries.

``RunResult.summary()`` (the full in-process result) and
``RunDigest.summary()`` (the slim sweep/serving wire shape) are one wire
format; both delegate to :func:`repro.scenario.summary.run_summary_payload`,
and these tests pin that they cannot drift — same keys, same order,
same presence rules, same values.
"""

from __future__ import annotations

import pytest

from repro.netsim.kernels import resolve_implementation
from repro.scenario import Scenario, clear_graph_cache, digest_run, run
from repro.scenario.summary import run_summary_payload


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_graph_cache()
    yield
    clear_graph_cache()


def _scenario(**overrides) -> Scenario:
    payload = {
        "graph": {"kind": "k_regular", "params": {"degree": 4, "num_nodes": 64}},
        "mechanism": {"kind": "rr", "params": {"epsilon": 1.0}},
        "rounds": 4,
        "seed": 11,
    }
    payload.update(overrides)
    return Scenario.from_dict(payload)


class TestSchemaEquality:
    def test_digest_summary_equals_result_summary(self):
        result = run(_scenario())
        assert digest_run(result).summary() == result.summary()

    def test_single_protocol_case(self):
        # A_single has no Theorem 6.1 estimate: empirical_epsilon must
        # be absent from BOTH shapes, not present-as-None in one.
        result = run(_scenario(protocol="single"))
        summary = result.summary()
        assert "empirical_epsilon" not in summary
        assert digest_run(result).summary() == summary

    def test_simulation_only_case(self):
        # No mechanism -> no central bound -> the accounting quartet is
        # absent together from both shapes.
        result = run(_scenario(mechanism=None))
        summary = result.summary()
        for key in ("central_epsilon", "central_delta", "theorem", "epsilon0"):
            assert key not in summary
        assert digest_run(result).summary() == summary

    def test_key_order_is_canonical(self):
        result = run(_scenario())
        assert list(result.summary()) == list(digest_run(result).summary())


class TestPresenceRules:
    def test_execution_scalars_always_present(self):
        payload = run_summary_payload(
            protocol="all", engine="fast", num_users=10, rounds=2,
            dummy_count=0, elapsed_seconds=0.5,
        )
        assert list(payload) == [
            "protocol", "engine", "backend", "num_users", "rounds",
            "dummy_count", "elapsed_seconds",
        ]
        assert payload["backend"] == resolve_implementation()

    def test_accounting_quartet_travels_together(self):
        payload = run_summary_payload(
            protocol="all", engine="fast", num_users=10, rounds=2,
            dummy_count=0, elapsed_seconds=0.5,
            central_epsilon=1.0, central_delta=1e-6, theorem="5.3",
            epsilon0=2.0,
        )
        assert [k for k in payload if k.startswith(("central", "theorem", "eps"))] == [
            "central_epsilon", "central_delta", "theorem", "epsilon0",
        ]

    def test_meter_pair_travels_together(self):
        payload = run_summary_payload(
            protocol="all", engine="metered", num_users=10, rounds=2,
            dummy_count=0, elapsed_seconds=0.5,
            total_messages_sent=100, max_peak_items=7,
        )
        assert payload["total_messages_sent"] == 100
        assert payload["max_peak_items"] == 7

    def test_elapsed_is_rounded(self):
        payload = run_summary_payload(
            protocol="all", engine="fast", num_users=10, rounds=2,
            dummy_count=0, elapsed_seconds=0.123456789,
        )
        assert payload["elapsed_seconds"] == 0.123457
