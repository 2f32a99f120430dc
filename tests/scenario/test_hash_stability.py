"""Scenario identity is a stored contract.

The campaign store keys results by :func:`scenario_hash`, so the hash of
a scenario must not move when the code around it changes.  The digests
below were computed before the exchange backends merged into one
engine; the deprecated ``engine`` field still serializes, so every legacy
value keeps its hash — and still runs, on the one engine, with outputs
identical to the default.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.scenario import GraphSpec, MechanismSpec, Scenario, run
from repro.scenario.cache import scenario_hash
from repro.scenario.sweep import sweep_scenarios

_BASE = Scenario(
    graph=GraphSpec.of("k_regular", degree=4, num_nodes=64),
    mechanism=MechanismSpec.of("rr", epsilon=1.0),
    rounds=6,
    seed=3,
)

_LEGACY_ENGINES = ("fast", "vectorized", "faithful", "compiled")

PINNED = {
    "default": "084eb6cd4398df923e58483241779d12cdd7a4a7695cecf3e7c9eda84823f3f1",
    "fast": "084eb6cd4398df923e58483241779d12cdd7a4a7695cecf3e7c9eda84823f3f1",
    "vectorized": "2aac1b55b62f5fc2d85d230beb92ffe3b9d44b4149446f5464af49f63c4c3b02",
    "faithful": "3bd3fcce050491affd5ef69fd3717d26286505ada2663f498632867e949a860a",
    "compiled": "06c3d998abf271b8f22a3955f01095f39e83f80c354b574a939736e397a8601f",
    "sweep:graph.degree=6": (
        "cf1cc5d9075c84aa1485e90da217b32b14e17f1fb683a16368b7d50b20a9bbe1"
    ),
    "sweep:engine=compiled,graph.degree=6": (
        "4f5edd158c0d99c006250e9889b402ce6f6b773dc2d13cb4c0ed0d53efc86d38"
    ),
}


def _corpus():
    corpus = {"default": _BASE}
    for engine in _LEGACY_ENGINES:
        corpus[engine] = _BASE.updated(engine=engine)
    for axis in ({"graph.degree": [6]},
                 {"engine": ["compiled"], "graph.degree": [6]}):
        for coordinates, scenario in sweep_scenarios(_BASE, axis):
            label = ",".join(f"{k}={v}" for k, v in coordinates.items())
            corpus[f"sweep:{label}"] = scenario
    return corpus


def test_scenario_hashes_are_pinned():
    hashes = {label: scenario_hash(s) for label, s in _corpus().items()}
    assert hashes == PINNED


@pytest.mark.parametrize("engine", _LEGACY_ENGINES)
def test_legacy_engine_json_runs_identically(engine):
    payload = _BASE.to_dict()
    payload["engine"] = engine
    legacy = Scenario.from_json(json.dumps(payload))
    assert legacy.engine == engine
    got = run(legacy)
    expected = run(_BASE)
    assert got.payloads() == expected.payloads()
    np.testing.assert_array_equal(
        got.protocol_result.allocation, expected.protocol_result.allocation
    )
    np.testing.assert_array_equal(
        got.protocol_result.delivered_by, expected.protocol_result.delivered_by
    )
    assert got.meters.total_messages_sent() == (
        expected.meters.total_messages_sent()
    )
    assert got.central_epsilon == expected.central_epsilon
    assert got.empirical_epsilon == expected.empirical_epsilon
