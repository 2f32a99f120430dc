"""Tests for the NetworkShuffler facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.shuffler import NetworkShuffler
from repro.exceptions import NotErgodicError, ValidationError
from repro.graphs.generators import cycle_graph, random_regular_graph
from repro.ldp.randomized_response import BinaryRandomizedResponse
from repro.testing.reference import reference_protocols


@pytest.fixture
def graph():
    return random_regular_graph(6, 200, rng=0)


class TestConstruction:
    def test_defaults(self, graph):
        shuffler = NetworkShuffler(graph, epsilon0=1.0, delta=1e-6)
        assert shuffler.protocol == "all"
        assert shuffler.analysis == "stationary"
        assert shuffler.rounds == shuffler.spectral.mixing_time

    def test_explicit_rounds(self, graph):
        shuffler = NetworkShuffler(graph, 1.0, 1e-6, rounds=5)
        assert shuffler.rounds == 5

    def test_config_snapshot(self, graph):
        shuffler = NetworkShuffler(graph, 1.0, 1e-6, protocol="single")
        config = shuffler.config
        assert config.protocol == "single"
        assert config.epsilon0 == 1.0

    def test_rejects_non_ergodic_graph(self):
        with pytest.raises(NotErgodicError):
            NetworkShuffler(cycle_graph(6), 1.0, 1e-6)

    def test_rejects_bad_protocol(self, graph):
        with pytest.raises(ValidationError):
            NetworkShuffler(graph, 1.0, 1e-6, protocol="some")

    def test_rejects_bad_analysis(self, graph):
        with pytest.raises(ValidationError):
            NetworkShuffler(graph, 1.0, 1e-6, analysis="exact")

    def test_symmetric_requires_regular(self):
        irregular = random_regular_graph(4, 100, rng=0).subgraph(range(99))
        if irregular.is_regular():
            pytest.skip("subgraph happened to stay regular")
        with pytest.raises(ValidationError):
            NetworkShuffler(irregular, 1.0, 1e-6, analysis="symmetric")

    def test_rejects_zero_rounds(self, graph):
        with pytest.raises(ValidationError):
            NetworkShuffler(graph, 1.0, 1e-6, rounds=0)


class TestGuarantees:
    def test_stationary_all(self, graph):
        shuffler = NetworkShuffler(graph, 1.0, 1e-6)
        bound = shuffler.central_guarantee()
        assert bound.theorem.startswith("5.3")
        assert bound.epsilon > 0

    def test_stationary_single(self, graph):
        shuffler = NetworkShuffler(graph, 1.0, 1e-6, protocol="single")
        assert shuffler.central_guarantee().theorem.startswith("5.5")

    def test_symmetric_all(self, graph):
        shuffler = NetworkShuffler(graph, 1.0, 1e-6, analysis="symmetric")
        assert "5.4" in shuffler.central_guarantee().theorem

    def test_symmetric_single(self, graph):
        shuffler = NetworkShuffler(
            graph, 1.0, 1e-6, protocol="single", analysis="symmetric"
        )
        assert "5.6" in shuffler.central_guarantee().theorem

    def test_more_rounds_no_worse(self, graph):
        shuffler = NetworkShuffler(graph, 1.0, 1e-6)
        early = shuffler.central_guarantee(rounds=1).epsilon
        late = shuffler.central_guarantee(rounds=50).epsilon
        assert late <= early

    def test_empirical_below_closed_form(self, graph):
        shuffler = NetworkShuffler(graph, 1.0, 1e-6)
        result = shuffler.run([0, 1] * 100, rng=1)
        empirical = shuffler.empirical_guarantee(result)
        assert empirical < shuffler.central_guarantee().epsilon


class TestRun:
    def test_all_protocol_run(self, graph):
        shuffler = NetworkShuffler(graph, 1.0, 1e-6)
        result = shuffler.run(
            [0, 1] * 100, BinaryRandomizedResponse(1.0), rng=0
        )
        assert result.protocol == "all"
        assert len(result.server_reports) == 200

    def test_single_protocol_run(self, graph):
        shuffler = NetworkShuffler(graph, 1.0, 1e-6, protocol="single")
        result = shuffler.run([0, 1] * 100, rng=0)
        assert result.protocol == "single"

    def test_randomizer_epsilon_mismatch_rejected(self, graph):
        shuffler = NetworkShuffler(graph, 1.0, 1e-6)
        with pytest.raises(ValidationError):
            shuffler.run([0] * 200, BinaryRandomizedResponse(2.0), rng=0)

    def test_faithful_engine(self, graph):
        """The facade runs on the reference simulator too, identically."""
        shuffler = NetworkShuffler(graph, 1.0, 1e-6, rounds=3)
        with reference_protocols():
            result = shuffler.run([0] * 200, rng=0)
        assert result.meters is not None
        engine = shuffler.run([0] * 200, rng=0)
        np.testing.assert_array_equal(result.allocation, engine.allocation)
