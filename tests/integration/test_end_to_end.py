"""Cross-module integration tests: the full pipeline end to end."""

from __future__ import annotations

import numpy as np

from repro import PrivacyAccountant, Scenario, bound, run
from repro.amplification.network_shuffle import epsilon_all_stationary
from repro.graphs.generators import random_regular_graph
from repro.graphs.spectral import spectral_summary
from repro.graphs.walks import report_allocation
from repro.ldp.randomized_response import KaryRandomizedResponse
from repro.protocols.secure import run_secure_protocol


class TestFullPipeline:
    """Dataset -> graph analysis -> protocol -> estimation -> accounting."""

    def test_private_survey_on_synthetic_dataset(self):
        # Population: 60/25/15 split over three answers.
        result = run(Scenario(
            graph={"kind": "dataset",
                   "params": {"name": "twitch", "scale": 0.3, "seed": 0}},
            mechanism={"kind": "kary_rr",
                       "params": {"epsilon": 3.0, "num_symbols": 3}},
            values={"kind": "choice", "params": {
                "num_options": 3, "probabilities": [0.6, 0.25, 0.15]}},
            seed=2,
        ))
        graph = result.graph
        n = graph.num_nodes
        estimate = result.mechanism.estimate_frequencies(
            np.asarray(result.payloads(), dtype=np.int64)
        )
        truth = np.bincount(result.values, minlength=3) / n
        np.testing.assert_allclose(estimate, truth, atol=0.1)

        # The central guarantee for this run: Theorem 5.3 at the mixing
        # time, priced from the graph's spectrum.
        summary = spectral_summary(graph)
        expected = epsilon_all_stationary(
            3.0, n, summary.sum_squared_bound(summary.mixing_time), 1e-6, 1e-6
        )
        assert result.rounds == summary.mixing_time
        assert result.bound.epsilon == expected.epsilon > 0

    def test_facade_plus_accountant(self):
        scenario = Scenario(
            graph={"kind": "k_regular",
                   "params": {"degree": 8, "num_nodes": 500}},
            epsilon0=0.5,
            delta=1e-7,
            protocol="single",
        )
        accountant = PrivacyAccountant(2.0, 1e-5)

        for day in range(3):
            guarantee = bound(scenario)
            accountant.record(guarantee.epsilon, guarantee.delta)
        eps_spent, _ = accountant.spent()
        assert 0 < eps_spent <= 2.0
        assert accountant.num_recorded == 3

    def test_secure_protocol_preserves_analytics(self):
        """Encrypted transport must not change what the server computes."""
        graph = random_regular_graph(4, 24, rng=0)
        randomizer = KaryRandomizedResponse(4.0, 3)
        symbols = [int(s) for s in np.arange(24) % 3]
        secure = run_secure_protocol(graph, 4, symbols, randomizer, rng=1)
        estimate = randomizer.estimate_frequencies(
            np.asarray(secure.decrypted_payloads)
        )
        np.testing.assert_allclose(estimate, 1.0 / 3.0, atol=0.25)

    def test_walk_statistics_match_theory_bound(self):
        """Empirical sum L_i^2 respects Lemma 5.1 w.h.p."""
        from repro.amplification.network_shuffle import report_load_l2_bound

        graph = random_regular_graph(8, 1000, rng=0)
        summary = spectral_summary(graph)
        rounds = summary.mixing_time
        bound = report_load_l2_bound(
            1000, summary.sum_squared_bound(rounds), 0.01
        )
        violations = 0
        for seed in range(50):
            allocation = report_allocation(graph, rounds, rng=seed)
            if np.linalg.norm(allocation) > bound:
                violations += 1
        # delta2 = 0.01: expect ~0 violations out of 50.
        assert violations <= 2

    def test_empirical_collision_matches_spectral_bound(self):
        """Monte-Carlo sum P^2 estimate stays below the Equation 7 bound."""
        graph = random_regular_graph(8, 512, rng=0)
        summary = spectral_summary(graph)
        for steps in (2, 5, 10, 20):
            exact = np.zeros(512)
            exact[0] = 1.0
            from repro.graphs.walks import evolve_distribution

            distribution = evolve_distribution(graph, exact, steps)
            collision = float(distribution @ distribution)
            assert collision <= summary.sum_squared_bound(steps) + 1e-12


class TestPrivacyDegradationScenarios:
    """Threat-model edges: what happens when assumptions weaken."""

    def test_fewer_rounds_better_posterior_attack(self):
        """A Bayes-optimal adversary (knows P^G, Section 3.3) recovers
        origins far better after one round than after mixing."""
        from repro.graphs.walks import position_distribution
        from repro.protocols.all_protocol import run_all_protocol

        graph = random_regular_graph(6, 100, rng=0)
        accuracies = {}
        for rounds in (1, 30):
            result = run_all_protocol(graph, rounds, values=[0] * 100, rng=1)
            view = result.adversary_view()
            matrix = np.stack(
                [position_distribution(graph, i, rounds) for i in range(100)]
            )
            accuracies[rounds] = view.linkage_accuracy(
                view.posterior_guess(matrix)
            )
        assert accuracies[1] > 2 * accuracies[30]

    def test_heavy_dropout_slows_anonymization(self):
        graph = random_regular_graph(6, 200, rng=0)
        from repro.protocols.all_protocol import run_all_protocol

        crisp = run_all_protocol(graph, 6, laziness=0.0, rng=3)
        lazy = run_all_protocol(graph, 6, laziness=0.9, rng=3)
        crisp_view = crisp.adversary_view()
        lazy_view = lazy.adversary_view()
        assert lazy_view.linkage_accuracy(
            lazy_view.baseline_guess()
        ) > crisp_view.linkage_accuracy(crisp_view.baseline_guess())
