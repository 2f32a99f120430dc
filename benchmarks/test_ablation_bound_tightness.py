"""Ablation — closed-form bound vs empirical Theorem 6.1 accounting.

The two privacy-accounting routes leave a gap between them:

* **closed form** (Theorem 5.3): Lemma 5.1 concentration on ``||L||_2``
  plus the Equation 7 spectral bound on ``sum P^2``;
* **empirical** (Theorem 6.1): compose the per-output epsilons computed
  from the *realized* allocation vector of a simulated run.

Shapes asserted: the closed form upper-bounds the empirical accounting
(it pays for worst-case concentration), and the gap is a modest
constant factor, not orders of magnitude.
"""

from __future__ import annotations

import numpy as np

from repro.amplification.network_shuffle import (
    epsilon_all_stationary,
    epsilon_from_report_sizes,
)
from repro.graphs.generators import random_regular_graph
from repro.graphs.spectral import spectral_summary
from repro.graphs.walks import report_allocation


def _run(config):
    graph = random_regular_graph(8, 4096, rng=config.seed)
    summary = spectral_summary(graph)
    rounds = summary.mixing_time
    eps0 = 1.0

    closed = epsilon_all_stationary(
        eps0,
        graph.num_nodes,
        summary.sum_squared_bound(rounds),
        config.delta,
        config.delta2,
    ).epsilon
    empirical = [
        epsilon_from_report_sizes(
            eps0,
            report_allocation(graph, rounds, rng=config.seed + repeat),
            config.delta,
        )
        for repeat in range(5)
    ]
    return closed, empirical


def test_bound_tightness(benchmark, config):
    closed, empirical = benchmark(lambda: _run(config))
    mean_empirical = float(np.mean(empirical))
    print(
        f"\nclosed-form eps = {closed:.4f}; empirical (Thm 6.1) = "
        f"{mean_empirical:.4f} over {len(empirical)} runs "
        f"(gap factor {closed / mean_empirical:.2f}x)"
    )
    for value in empirical:
        assert value <= closed, (
            f"empirical accounting {value} exceeded the closed-form bound "
            f"{closed}"
        )
    assert closed <= 25.0 * mean_empirical, (
        "bound is catastrophically loose; something is off"
    )
    # The empirical accounting is itself stable across runs.
    assert np.std(empirical) <= 0.1 * mean_empirical
