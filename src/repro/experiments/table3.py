"""Table 3 — space/traffic complexity comparison, *measured*.

Paper claim:

=============  ========  ========  =================
complexity     Prochlo   Mix-nets  Network shuffling
=============  ========  ========  =================
entity space   O(n)      O(1)      O(1)
user traffic   O(1)      O(n)      O(log n) / O(1)
=============  ========  ========  =================

This experiment runs the three instrumented simulators over a geometric
range of ``n`` and fits the growth exponents of

* peak memory of the *shuffling entity* (Prochlo's shuffler, a mix-net
  relay, a network-shuffling user);
* messages *sent per user*.

Network shuffling is run for a fixed number of rounds per user, so its
per-round traffic is O(1); running it for the mixing time
``alpha^{-1} log n`` yields the paper's O(log n) total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.baselines.mixnet import run_mixnet
from repro.baselines.prochlo import run_prochlo
from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig
from repro.experiments.reporting import fit_power_law, format_table
from repro.scenario import GraphSpec, Scenario, clear_graph_cache, sweep

#: Fixed exchange rounds for the constant-rounds network-shuffling runs.
_FIXED_ROUNDS = 8
#: Degree of the communication graph used for network shuffling.
_DEGREE = 8


@dataclass(frozen=True)
class ComplexityPoint:
    """Measured counters at one population size."""

    mechanism: str
    n: int
    entity_peak_memory: int
    max_user_traffic: int


@dataclass(frozen=True)
class ComplexityFit:
    """Fitted growth exponents for one mechanism."""

    mechanism: str
    memory_exponent: float
    traffic_exponent: float
    claimed_memory: str
    claimed_traffic: str


_CLAIMS = {
    "prochlo": ("O(n)", "O(1)"),
    "mixnet": ("O(1)", "O(n)"),
    "network shuffling": ("O(1)", "O(1) per round"),
}


def measure_complexity(
    n_values: Sequence[int], *, config: ExperimentConfig = DEFAULT_CONFIG
) -> List[ComplexityPoint]:
    """Run all three mechanisms at every ``n`` and record the counters.

    The network-shuffling column is one declarative ``graph.num_nodes``
    sweep in ``run`` mode; ``results="full"`` keeps the per-user meter
    boards the complexity fits read (a digest only carries aggregates).
    """
    base = Scenario(
        graph=GraphSpec.of(
            "k_regular", degree=_DEGREE, num_nodes=int(n_values[0])
        ),
        rounds=_FIXED_ROUNDS,
        seed=config.seed,
    )
    shuffles = sweep(
        base,
        axis={"graph.num_nodes": [int(n) for n in n_values]},
        mode="run",
        results="full",
    )
    points: List[ComplexityPoint] = []
    for n, shuffle_point in zip(n_values, shuffles):
        values = [0] * n
        prochlo = run_prochlo(values, rng=config.seed)
        points.append(
            ComplexityPoint(
                mechanism="prochlo",
                n=n,
                entity_peak_memory=prochlo.shuffler_peak_memory,
                max_user_traffic=prochlo.max_user_traffic,
            )
        )
        mixnet = run_mixnet(values, rng=config.seed)
        points.append(
            ComplexityPoint(
                mechanism="mixnet",
                n=n,
                entity_peak_memory=mixnet.relay_peak_memory(),
                max_user_traffic=mixnet.max_user_traffic(),
            )
        )
        shuffle = shuffle_point.outcome
        user_meters = [shuffle.meters.meter(u) for u in range(n)]
        points.append(
            ComplexityPoint(
                mechanism="network shuffling",
                n=n,
                entity_peak_memory=max(m.peak_items for m in user_meters),
                # Exclude the final delivery-to-server send so the metric
                # is pure exchange traffic, averaged per round.
                max_user_traffic=int(
                    np.ceil(max(m.messages_sent for m in user_meters) / _FIXED_ROUNDS)
                ),
            )
        )
    # Don't leave the largest measured graphs pinned in the scenario
    # cache after the experiment returns — but an unrelated experiment
    # must not detach a disk tier the caller attached.
    clear_graph_cache(detach_spill=False)
    return points


def fit_complexity(points: Sequence[ComplexityPoint]) -> List[ComplexityFit]:
    """Fit memory/traffic growth exponents per mechanism."""
    fits: List[ComplexityFit] = []
    for mechanism in ("prochlo", "mixnet", "network shuffling"):
        subset = [p for p in points if p.mechanism == mechanism]
        ns = [p.n for p in subset]
        memory = [max(1, p.entity_peak_memory) for p in subset]
        traffic = [max(1, p.max_user_traffic) for p in subset]
        _, memory_exp = fit_power_law(ns, memory)
        _, traffic_exp = fit_power_law(ns, traffic)
        claimed_memory, claimed_traffic = _CLAIMS[mechanism]
        fits.append(
            ComplexityFit(
                mechanism=mechanism,
                memory_exponent=memory_exp,
                traffic_exponent=traffic_exp,
                claimed_memory=claimed_memory,
                claimed_traffic=claimed_traffic,
            )
        )
    return fits


def run_table3(
    *,
    n_values: Sequence[int] = (256, 512, 1024, 2048),
    config: ExperimentConfig = DEFAULT_CONFIG,
) -> tuple[List[ComplexityPoint], List[ComplexityFit]]:
    """Measure and fit the Table 3 complexities."""
    points = measure_complexity(n_values, config=config)
    return points, fit_complexity(points)


def render_table3(
    points: Sequence[ComplexityPoint], fits: Sequence[ComplexityFit]
) -> str:
    """ASCII rendering: raw counters plus fitted growth classes."""
    raw = format_table(
        ["mechanism", "n", "entity peak memory", "max user traffic"],
        [
            (p.mechanism, p.n, p.entity_peak_memory, p.max_user_traffic)
            for p in points
        ],
    )
    fitted = format_table(
        ["mechanism", "memory exponent", "claimed", "traffic exponent", "claimed"],
        [
            (
                f.mechanism,
                round(f.memory_exponent, 3),
                f.claimed_memory,
                round(f.traffic_exponent, 3),
                f.claimed_traffic,
            )
            for f in fits
        ],
    )
    return raw + "\n\n" + fitted


def main() -> None:
    """Regenerate and print Table 3."""
    points, fits = run_table3()
    print(render_table3(points, fits))


if __name__ == "__main__":
    main()
