"""Tests for the estimation layer (mean / frequency / metrics).

The workloads run as scenarios through ``repro.run``; the server side is
:func:`mean_estimate_from_run` for PrivUnit vectors, and
``KaryRandomizedResponse.estimate_frequencies`` plus
:func:`correct_for_dummies` for histograms.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Scenario, run
from repro.estimation.frequency import correct_for_dummies
from repro.estimation.mean import (
    generate_bimodal_unit_vectors,
    make_dummy_factory,
    mean_estimate_from_run,
    true_mean,
)
from repro.estimation.metrics import (
    max_absolute_error,
    mean_squared_error,
    squared_l2_error,
)
from repro.exceptions import ValidationError
from repro.ldp.privunit import PrivUnit


class TestMetrics:
    def test_squared_l2(self):
        assert squared_l2_error(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == 5.0

    def test_squared_l2_shape_mismatch(self):
        with pytest.raises(ValidationError):
            squared_l2_error(np.zeros(2), np.zeros(3))

    def test_mse_rows(self):
        estimates = np.array([[1.0, 0.0], [0.0, 1.0]])
        truths = np.zeros((2, 2))
        assert mean_squared_error(estimates, truths) == 1.0

    def test_max_abs(self):
        assert max_absolute_error(
            np.array([0.1, -0.5]), np.array([0.0, 0.0])
        ) == 0.5


class TestBimodalData:
    def test_unit_norms(self):
        data = generate_bimodal_unit_vectors(100, 50, rng=0)
        np.testing.assert_allclose(np.linalg.norm(data, axis=1), 1.0)

    def test_two_clusters(self):
        data = generate_bimodal_unit_vectors(200, 100, rng=0)
        half = 100
        # High-mean cluster concentrates harder on the diagonal.
        low_norm_of_mean = np.linalg.norm(data[:half].mean(axis=0))
        high_norm_of_mean = np.linalg.norm(data[half:].mean(axis=0))
        assert high_norm_of_mean > low_norm_of_mean

    def test_true_mean(self):
        data = generate_bimodal_unit_vectors(50, 10, rng=0)
        np.testing.assert_allclose(true_mean(data), data.mean(axis=0))

    def test_deterministic(self):
        a = generate_bimodal_unit_vectors(30, 10, rng=5)
        b = generate_bimodal_unit_vectors(30, 10, rng=5)
        np.testing.assert_array_equal(a, b)


class TestDummyFactory:
    def test_produces_debiased_reports(self, rng):
        randomizer = PrivUnit(2.0, 20)
        factory = make_dummy_factory(randomizer)
        dummy = factory(rng)
        assert dummy.shape == (20,)
        # Reports are scaled by 1/m, so their norm is 1/m.
        assert np.linalg.norm(dummy) == pytest.approx(
            1.0 / randomizer.scale, rel=1e-9
        )


def _mean_run(epsilon0, protocol, rounds, seed, *, num_users=300):
    """Figure 9's workload on a 6-regular graph, d = 30."""
    return mean_estimate_from_run(run(Scenario(
        graph={"kind": "k_regular",
               "params": {"degree": 6, "num_nodes": num_users}},
        mechanism={"kind": "privunit",
                   "params": {"epsilon": epsilon0, "dimension": 30}},
        values={"kind": "bimodal_unit_vectors", "params": {"dimension": 30}},
        dummies={"kind": "privunit_normal"},
        protocol=protocol,
        rounds=rounds,
        seed=seed,
    )))


def _frequency_run(epsilon0, protocol, rounds, seed, *, num_users=400,
                  probabilities=None):
    """K-ary RR histogram over a 6-regular graph: ``(estimate, truth)``.

    The server inverts the RR channel on the delivered payloads and, for
    ``A_single``, removes the ``A_ldp(0)`` dummy spike.
    """
    result = run(Scenario(
        graph={"kind": "k_regular",
               "params": {"degree": 6, "num_nodes": num_users}},
        mechanism={"kind": "kary_rr",
                   "params": {"epsilon": epsilon0, "num_symbols": 4}},
        values={"kind": "choice", "params": {
            "num_options": 4, "probabilities": probabilities}},
        dummies={"kind": "mechanism_zero"},
        protocol=protocol,
        rounds=rounds,
        seed=seed,
    ))
    payloads = np.asarray(result.payloads(), dtype=np.int64)
    estimate = result.mechanism.estimate_frequencies(payloads)
    dummies = result.protocol_result.dummy_count
    if dummies:
        estimate = correct_for_dummies(estimate, dummies / num_users)
    truth = np.bincount(result.values, minlength=4) / num_users
    return estimate, truth, dummies


class TestMeanEstimation:
    def test_all_protocol_reasonable_error(self):
        result = _mean_run(4.0, "all", rounds=20, seed=2)
        assert result.protocol == "all"
        assert result.dummy_count == 0
        assert result.num_reports == 300
        assert result.squared_error < 1.0

    def test_single_protocol_has_dummies(self):
        result = _mean_run(4.0, "single", rounds=20, seed=2)
        assert result.protocol == "single"
        assert result.dummy_count > 0
        assert result.num_reports == 300

    def test_error_decreases_with_epsilon(self):
        noisy = _mean_run(1.0, "all", rounds=10, seed=2)
        precise = _mean_run(6.0, "all", rounds=10, seed=2)
        assert precise.squared_error < noisy.squared_error

    def test_all_beats_single_at_same_eps0(self):
        """At equal eps0 A_single pays the dummy-bias penalty on top of
        the same per-report noise.  High eps0 shrinks the shared noise
        so the penalty dominates; the comparison is seed-paired (same
        graph, population and reports per seed) to cut Monte-Carlo
        variance.  The penalty (~3e-3 in squared error) does not shrink
        with n while the noise does: at 1000 users the mean over 8
        seeds sits about four standard errors above zero."""
        differences = [
            _mean_run(6.0, "single", rounds=15, seed=seed,
                      num_users=1000).squared_error
            - _mean_run(6.0, "all", rounds=15, seed=seed,
                        num_users=1000).squared_error
            for seed in range(8)
        ]
        assert np.mean(differences) > 0.0


class TestFrequencyEstimation:
    def test_estimates_frequencies(self):
        estimate, truth, dummies = _frequency_run(3.0, "all", rounds=15, seed=1)
        assert dummies == 0
        np.testing.assert_allclose(truth.sum(), 1.0)
        assert max_absolute_error(estimate, truth) < 0.15

    def test_single_protocol_runs(self):
        estimate, _, dummies = _frequency_run(3.0, "single", rounds=15, seed=1)
        assert dummies > 0
        assert estimate.shape == (4,)

    def test_more_budget_less_error(self):
        def error(epsilon0, seed):
            estimate, truth, _ = _frequency_run(
                epsilon0, "all", rounds=10, seed=seed
            )
            return max_absolute_error(estimate, truth)

        noisy = np.mean([error(0.5, seed) for seed in range(5)])
        precise = np.mean([error(5.0, seed) for seed in range(5)])
        assert precise < noisy

    def test_rejects_out_of_range_symbols(self):
        """Answers outside the mechanism's alphabet fail the run loudly."""
        scenario = Scenario(
            graph={"kind": "k_regular",
                   "params": {"degree": 6, "num_nodes": 400}},
            mechanism={"kind": "kary_rr",
                       "params": {"epsilon": 1.0, "num_symbols": 2}},
            values={"kind": "choice", "params": {"num_options": 4}},
        )
        with pytest.raises(ValidationError, match="symbol"):
            run(scenario)
