"""Shared experiment configuration.

Every experiment driver takes an :class:`ExperimentConfig`; the
accounting defaults are the library's :data:`~repro.amplification.
network_shuffle.DEFAULT_DELTA`, so the experiments price exactly what
``repro.bound`` prices for a scenario that leaves ``delta`` unset.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.amplification.network_shuffle import DEFAULT_DELTA

__all__ = ["DEFAULT_CONFIG", "ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments."""

    delta: float = DEFAULT_DELTA
    """Central composition failure probability."""
    delta2: float = DEFAULT_DELTA
    """Lemma 5.1 (report-load concentration) failure probability."""
    seed: int = 0
    """Base seed; experiments derive child streams from it."""
    dataset_scale: float = 1.0
    """Scale factor applied to materialized datasets (Google uses its
    own smaller default regardless)."""


DEFAULT_CONFIG = ExperimentConfig()
