"""The :class:`NetworkShuffler` facade — the library's main entry point.

Wires together graph analysis, round selection, the protocol
simulators, and the privacy theorems, so a downstream user can go from
"here is my communication graph and local budget" to "here is my
central guarantee and my collected reports" without touching the
internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence


from repro.amplification.network_shuffle import (
    NetworkShuffleBound,
    epsilon_all_stationary,
    epsilon_all_symmetric,
    epsilon_from_report_sizes,
    epsilon_single_stationary,
    epsilon_single_symmetric,
)
from repro.exceptions import ValidationError
from repro.graphs.graph import Graph
from repro.graphs.spectral import SpectralSummary, spectral_summary
from repro.graphs.walks import position_distribution
from repro.ldp.base import LocalRandomizer
from repro.protocols.all_protocol import run_all_protocol
from repro.protocols.reports import ProtocolResult
from repro.protocols.single_protocol import run_single_protocol
from repro.utils.rng import RngLike
from repro.utils.validation import check_delta, check_epsilon


@dataclass(frozen=True)
class ShufflerConfig:
    """Resolved configuration of a :class:`NetworkShuffler`."""

    epsilon0: float
    delta: float
    protocol: str
    rounds: int
    analysis: str


class NetworkShuffler:
    """Network shuffling on a fixed communication graph.

    Parameters
    ----------
    graph:
        The communication network (must be ergodic: connected and
        non-bipartite, Theorem 4.3).
    epsilon0:
        Local randomizer budget the deployment will use.
    delta:
        Central failure probability for the amplification bounds (also
        used for the Lemma 5.1 ``delta2`` unless overridden).
    protocol:
        ``"all"`` (Algorithm 1) or ``"single"`` (Algorithm 2).
    rounds:
        Exchange rounds; ``None`` selects the mixing time
        ``alpha^{-1} log n`` (the paper's operating point).
    analysis:
        ``"stationary"`` (ergodic-graph bound, Theorems 5.3/5.5) or
        ``"symmetric"`` (exact k-regular tracking, Theorems 5.4/5.6 —
        requires a regular graph).
    """

    def __init__(
        self,
        graph: Graph,
        epsilon0: float,
        delta: float,
        *,
        protocol: str = "all",
        rounds: Optional[int] = None,
        analysis: str = "stationary",
    ):
        if protocol not in ("all", "single"):
            raise ValidationError(
                f"protocol must be 'all' or 'single', got {protocol!r}"
            )
        if analysis not in ("stationary", "symmetric"):
            raise ValidationError(
                f"analysis must be 'stationary' or 'symmetric', got {analysis!r}"
            )
        if analysis == "symmetric" and not graph.is_regular():
            raise ValidationError(
                "symmetric analysis (Theorems 5.4/5.6) requires a k-regular graph"
            )
        self.graph = graph
        self.epsilon0 = check_epsilon(epsilon0, "epsilon0")
        self.delta = check_delta(delta, "delta")
        self.protocol = protocol
        self.analysis = analysis
        self._summary: SpectralSummary = spectral_summary(graph)
        self.rounds = self._summary.mixing_time if rounds is None else int(rounds)
        if self.rounds < 1:
            raise ValidationError(f"rounds must be >= 1, got {self.rounds}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def spectral(self) -> SpectralSummary:
        """Spectral facts of the graph (gap, mixing time, Gamma_G)."""
        return self._summary

    @property
    def config(self) -> ShufflerConfig:
        """The resolved configuration."""
        return ShufflerConfig(
            epsilon0=self.epsilon0,
            delta=self.delta,
            protocol=self.protocol,
            rounds=self.rounds,
            analysis=self.analysis,
        )

    # ------------------------------------------------------------------
    # Privacy
    # ------------------------------------------------------------------
    def central_guarantee(
        self, *, rounds: Optional[int] = None
    ) -> NetworkShuffleBound:
        """The central-DP guarantee of this deployment (paper theorems).

        Selects the theorem matching ``(protocol, analysis)`` and
        evaluates it at ``rounds`` (default: the configured rounds).
        """
        steps = self.rounds if rounds is None else int(rounds)
        n = self.graph.num_nodes
        if self.analysis == "stationary":
            sum_squared = self._summary.sum_squared_bound(steps)
            if self.protocol == "all":
                return epsilon_all_stationary(
                    self.epsilon0, n, sum_squared, self.delta
                )
            return epsilon_single_stationary(
                self.epsilon0, n, sum_squared, self.delta
            )
        # Symmetric: exact per-user position distribution from node 0
        # (vertex-transitivity makes the choice of start irrelevant for
        # random regular graphs in expectation).
        distribution = position_distribution(self.graph, 0, steps)
        if self.protocol == "all":
            return epsilon_all_symmetric(
                self.epsilon0, n, distribution, self.delta
            )
        return epsilon_single_symmetric(
            self.epsilon0, n, distribution, self.delta
        )

    def empirical_guarantee(
        self, result: ProtocolResult
    ) -> float:
        """Theorem 6.1 accounting from a *realized* run's allocation.

        Tighter than :meth:`central_guarantee` because it skips the
        Lemma 5.1 concentration slack; valid for the observed run.
        """
        return epsilon_from_report_sizes(
            self.epsilon0, result.allocation, self.delta
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        values: Sequence[Any],
        randomizer: Optional[LocalRandomizer] = None,
        *,
        rng: RngLike = None,
    ) -> ProtocolResult:
        """Simulate the configured protocol on this graph.

        ``randomizer.epsilon`` must match the configured ``epsilon0`` —
        a mismatch would make :meth:`central_guarantee` meaningless.
        """
        if randomizer is not None and abs(randomizer.epsilon - self.epsilon0) > 1e-12:
            raise ValidationError(
                f"randomizer epsilon ({randomizer.epsilon}) != configured "
                f"epsilon0 ({self.epsilon0})"
            )
        if self.protocol == "all":
            return run_all_protocol(
                self.graph,
                self.rounds,
                values=values,
                randomizer=randomizer,
                rng=rng,
            )
        return run_single_protocol(
            self.graph,
            self.rounds,
            values=values,
            randomizer=randomizer,
            rng=rng,
        )
