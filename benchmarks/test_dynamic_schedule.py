"""Dynamic-schedule overhead: per-round CSR swapping vs the static path.

The tentpole claim of the time-varying-network support is that swapping
the engine's cached ``_degrees``/``_indptr``/``_indices`` per round is
an O(1)-rebind + O(n)-degree-diff operation — the scheduled exchange
must stay within a small constant factor of the static fast path, not
degrade toward the per-message simulator.  A two-phase round-robin
schedule swaps the topology *every* round, the worst case.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.generators import random_regular_graph
from repro.netsim.network import RoundBasedNetwork

_NUM_NODES = 10_000
_ROUNDS = 16

#: Worst-case per-round swapping must cost no more than this multiple
#: of the static per-round exchange (generous for CI timer noise; the
#: measured local ratio is ~1.1-1.3x).
_MAX_SLOWDOWN = 3.0


@pytest.fixture(scope="module")
def phases():
    return [
        random_regular_graph(8, _NUM_NODES, rng=0),
        random_regular_graph(8, _NUM_NODES, rng=1),
    ]


def _timed_exchange(topology) -> tuple[float, np.ndarray]:
    # Round by round on both topologies: a static graph would otherwise
    # take the fused kernel, and the ratio would no longer isolate the
    # cost of the swaps.
    network = RoundBasedNetwork(topology, rng=0)
    network.seed_items(range(_NUM_NODES), range(_NUM_NODES))
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        network.run_exchange_round()
    return time.perf_counter() - start, network.held_counts()


def test_schedule_swap_overhead_small_constant_factor(phases):
    static_time, _ = _timed_exchange(phases[0])
    schedule_time, _ = _timed_exchange(DynamicGraphSchedule(phases))
    ratio = schedule_time / static_time
    print(
        f"\nstatic: {static_time:.3f}s  scheduled: {schedule_time:.3f}s  "
        f"ratio: {ratio:.2f}x ({_NUM_NODES} nodes, {_ROUNDS} rounds, "
        "swap every round)"
    )
    assert ratio <= _MAX_SLOWDOWN, (
        f"per-round graph swapping is {ratio:.2f}x the static fast path "
        f"(budget {_MAX_SLOWDOWN}x)"
    )


def test_schedule_of_one_is_bit_identical_to_static(phases):
    """The swap machinery must be free when nothing actually changes."""
    _, static_counts = _timed_exchange(phases[0])
    _, scheduled_counts = _timed_exchange(DynamicGraphSchedule([phases[0]]))
    np.testing.assert_array_equal(static_counts, scheduled_counts)


def test_bench_scheduled_exchange(benchmark, phases):
    """pytest-benchmark timing of the scheduled exchange (JSON artifact)."""
    schedule = DynamicGraphSchedule(phases)

    def exchange():
        network = RoundBasedNetwork(schedule, rng=0)
        network.seed_items(range(_NUM_NODES), range(_NUM_NODES))
        network.run_exchange(_ROUNDS)

    benchmark(exchange)
