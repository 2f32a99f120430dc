"""Tests for spectral machinery: transition matrix, gap, mixing time."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphError, NotErgodicError
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    random_regular_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.spectral import (
    _DENSE_EIGEN_LIMIT,
    mixing_time,
    normalized_adjacency,
    normalized_adjacency_eigenvalues,
    spectral_gap,
    spectral_summary,
    stationary_distribution,
    transition_matrix,
)


class TestTransitionMatrix:
    def test_row_stochastic(self):
        graph = random_regular_graph(4, 30, rng=0)
        matrix = transition_matrix(graph)
        np.testing.assert_allclose(
            np.asarray(matrix.sum(axis=1)).ravel(), 1.0
        )

    def test_uniform_over_neighbors(self):
        graph = Graph(3, [(0, 1), (0, 2)])
        matrix = transition_matrix(graph).toarray()
        assert matrix[0, 1] == pytest.approx(0.5)
        assert matrix[0, 2] == pytest.approx(0.5)
        assert matrix[1, 0] == pytest.approx(1.0)

    def test_rejects_isolated_node(self):
        graph = Graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            transition_matrix(graph)


class TestStationaryDistribution:
    def test_proportional_to_degree(self):
        graph = Graph(3, [(0, 1), (0, 2)])
        pi = stationary_distribution(graph)
        np.testing.assert_allclose(pi, [0.5, 0.25, 0.25])

    def test_uniform_for_regular(self):
        graph = random_regular_graph(4, 20, rng=0)
        pi = stationary_distribution(graph)
        np.testing.assert_allclose(pi, 1.0 / 20)

    def test_is_fixed_point(self):
        """pi = M^T pi (Definition 4.1)."""
        graph = random_regular_graph(6, 40, rng=1)
        matrix = transition_matrix(graph)
        pi = stationary_distribution(graph)
        np.testing.assert_allclose(matrix.T @ pi, pi, atol=1e-12)

    def test_fixed_point_irregular(self):
        graph = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        matrix = transition_matrix(graph)
        pi = stationary_distribution(graph)
        np.testing.assert_allclose(matrix.T @ pi, pi, atol=1e-12)

    def test_rejects_edgeless(self):
        with pytest.raises(GraphError):
            stationary_distribution(Graph(2, []))


class TestEigenvalues:
    def test_leading_eigenvalue_is_one(self):
        graph = random_regular_graph(4, 30, rng=0)
        eigenvalues = normalized_adjacency_eigenvalues(graph)
        assert eigenvalues[0] == pytest.approx(1.0, abs=1e-9)

    def test_descending_order(self):
        graph = random_regular_graph(4, 30, rng=0)
        eigenvalues = normalized_adjacency_eigenvalues(graph)
        assert np.all(np.diff(eigenvalues) <= 1e-12)

    def test_bipartite_has_minus_one(self):
        eigenvalues = normalized_adjacency_eigenvalues(cycle_graph(6))
        assert eigenvalues[-1] == pytest.approx(-1.0, abs=1e-9)

    def test_complete_graph_spectrum(self):
        # K_n normalized adjacency: 1 with multiplicity 1, -1/(n-1) else.
        eigenvalues = normalized_adjacency_eigenvalues(complete_graph(5))
        assert eigenvalues[0] == pytest.approx(1.0)
        np.testing.assert_allclose(eigenvalues[1:], -0.25, atol=1e-9)

    def test_sparse_path_on_large_graph(self):
        graph = random_regular_graph(6, 2000, rng=0)
        eigenvalues = normalized_adjacency_eigenvalues(graph)
        assert eigenvalues[0] == pytest.approx(1.0, abs=1e-6)


class TestSpectralGap:
    def test_positive_for_ergodic(self):
        assert spectral_gap(cycle_graph(5)) > 0.0

    def test_zero_for_bipartite_without_validation(self):
        assert spectral_gap(cycle_graph(6), validate=False) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_validation_rejects_bipartite(self):
        with pytest.raises(NotErgodicError):
            spectral_gap(cycle_graph(6))

    def test_complete_graph_gap(self):
        # gap = min(1 - (-1/(n-1)), 1 - 1/(n-1)) = 1 - 1/(n-1).
        gap = spectral_gap(complete_graph(5))
        assert gap == pytest.approx(0.75, abs=1e-9)

    def test_larger_degree_larger_gap(self):
        g4 = spectral_gap(random_regular_graph(4, 200, rng=0))
        g16 = spectral_gap(random_regular_graph(16, 200, rng=0))
        assert g16 > g4

    def test_lanczos_gap_bit_identical_across_calls(self):
        """Above the dense limit the gap comes from ARPACK; repeated
        calls in one process must agree bit for bit."""
        graph = random_regular_graph(4, 2000, rng=0)
        assert graph.num_nodes > _DENSE_EIGEN_LIMIT
        first = spectral_gap(graph)
        assert spectral_gap(graph) == first
        assert spectral_gap(graph) == first


class TestMixingTime:
    def test_formula(self):
        graph = random_regular_graph(8, 100, rng=0)
        gap = spectral_gap(graph)
        expected = max(1, round(np.log(100) / gap))
        assert mixing_time(graph) == expected

    def test_gap_shortcut(self):
        graph = random_regular_graph(8, 100, rng=0)
        assert mixing_time(graph, gap=0.5, validate=False) == round(
            np.log(100) / 0.5
        )

    def test_zero_gap_raises(self):
        graph = cycle_graph(5)
        with pytest.raises(GraphError):
            mixing_time(graph, gap=0.0, validate=False)


class TestSpectralSummary:
    def test_fields(self):
        graph = random_regular_graph(4, 64, rng=0)
        summary = spectral_summary(graph)
        assert summary.num_nodes == 64
        assert summary.irregularity_gamma == pytest.approx(1.0)
        assert summary.stationary_collision == pytest.approx(1.0 / 64)
        assert 0 < summary.spectral_gap < 1

    def test_sum_squared_bound_monotone(self):
        graph = random_regular_graph(4, 64, rng=0)
        summary = spectral_summary(graph)
        values = [summary.sum_squared_bound(t) for t in range(0, 30, 3)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_sum_squared_bound_capped_at_one(self):
        graph = random_regular_graph(4, 64, rng=0)
        summary = spectral_summary(graph)
        assert summary.sum_squared_bound(0) == 1.0

    def test_sum_squared_bound_limit(self):
        graph = random_regular_graph(4, 64, rng=0)
        summary = spectral_summary(graph)
        assert summary.sum_squared_bound(10_000) == pytest.approx(
            summary.stationary_collision
        )

    def test_negative_steps_rejected(self):
        graph = random_regular_graph(4, 64, rng=0)
        with pytest.raises(ValueError):
            spectral_summary(graph).sum_squared_bound(-1)

    def test_rejects_non_ergodic(self):
        with pytest.raises(NotErgodicError):
            spectral_summary(cycle_graph(4))


class TestNormalizedAdjacency:
    def test_symmetric(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        matrix = normalized_adjacency(graph).toarray()
        np.testing.assert_allclose(matrix, matrix.T)

    def test_similar_to_transition(self):
        """N = D^{1/2} M D^{-1/2}: same spectrum as M."""
        graph = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        m_eigs = np.sort(np.linalg.eigvals(transition_matrix(graph).toarray()).real)
        n_eigs = np.sort(np.linalg.eigvalsh(normalized_adjacency(graph).toarray()))
        np.testing.assert_allclose(m_eigs, n_eigs, atol=1e-9)
