"""Tests for the A_single histogram dummy correction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.estimation.frequency import correct_for_dummies
from repro.exceptions import ValidationError


class TestCorrectForDummies:
    def test_no_dummies_is_identity(self):
        raw = np.array([0.4, 0.3, 0.3])
        np.testing.assert_allclose(correct_for_dummies(raw, 0.0), raw)

    def test_exact_inversion(self):
        """Mix truth with a dummy spike and invert exactly."""
        truth = np.array([0.5, 0.3, 0.2])
        f = 0.4
        observed = (1 - f) * truth
        observed[0] += f
        recovered = correct_for_dummies(observed, f)
        np.testing.assert_allclose(recovered, truth, atol=1e-12)

    def test_preserves_total_mass(self):
        truth = np.array([0.25, 0.25, 0.5])
        f = 0.3
        observed = (1 - f) * truth
        observed[0] += f
        assert correct_for_dummies(observed, f).sum() == pytest.approx(1.0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValidationError):
            correct_for_dummies(np.array([1.0]), 1.0)
        with pytest.raises(ValidationError):
            correct_for_dummies(np.array([1.0]), -0.1)

    def test_end_to_end_improves_estimate(self):
        """On a real A_single run the corrected histogram beats the
        uncorrected one (regression test for the survey example)."""
        from repro import Scenario, run
        from repro.estimation.metrics import max_absolute_error

        result = run(Scenario(
            graph={"kind": "k_regular",
                   "params": {"degree": 6, "num_nodes": 600}},
            mechanism={"kind": "kary_rr",
                       "params": {"epsilon": 3.0, "num_symbols": 4}},
            values={"kind": "choice", "params": {
                "num_options": 4, "probabilities": [0.4, 0.3, 0.2, 0.1]}},
            dummies={"kind": "mechanism_zero"},
            protocol="single",
            rounds=25,
            seed=2,
        ))
        raw = result.mechanism.estimate_frequencies(
            np.asarray(result.payloads(), dtype=np.int64)
        )
        dummies = result.protocol_result.dummy_count
        corrected = correct_for_dummies(raw, dummies / 600)
        truth = np.bincount(result.values, minlength=4) / 600
        # The corrected estimate lands near the truth even though ~1/e
        # of reports were dummies at symbol 0.
        assert dummies > 100
        assert max_absolute_error(corrected, truth) < 0.12
        assert max_absolute_error(corrected, truth) < max_absolute_error(
            raw, truth
        )
