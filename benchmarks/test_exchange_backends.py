"""Exchange shootout: reference vs engine, fused vs per-round, JIT vs NumPy.

The exchange engine must beat the per-message reference simulator by
>=10x on a 10,000-node, 16-round exchange while producing the
*identical* seeded held-count vector (the shared RNG contract makes the
comparison exact, not statistical).  Within the engine, the fused
``run(rounds)`` must not be slower than the same engine's per-round
loop, and with numba installed the JIT bodies must beat the same
engine's NumPy bodies by >=3x on the fused path.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.graphs.generators import random_regular_graph
from repro.netsim import kernels
from repro.netsim.kernels import NUMBA_AVAILABLE, resolve_implementation
from repro.netsim.network import RoundBasedNetwork
from repro.testing.reference import ReferenceNetwork

_NUM_NODES = 10_000
_DEGREE = 8
_ROUNDS = 16


@pytest.fixture(scope="module")
def shootout_graph():
    return random_regular_graph(_DEGREE, _NUM_NODES, rng=0)


def _timed_exchange(network, *, stepped: bool = False, numpy: bool = False):
    """Seed one report per node, time ``_ROUNDS`` rounds, return
    ``(seconds, held counts)``.  ``stepped`` drives the per-round kernel
    round by round; ``numpy`` pins the engine to its NumPy bodies."""
    if numpy:
        network.engine._round_kernel = kernels._round_numpy
        network.engine._rounds_kernel = kernels._rounds_numpy
    network.seed_items(range(network.num_users), range(network.num_users))
    start = time.perf_counter()
    if stepped:
        for _ in range(_ROUNDS):
            network.run_exchange_round()
    else:
        network.run_exchange(_ROUNDS)
    elapsed = time.perf_counter() - start
    return elapsed, network.held_counts()


def test_engine_speedup_over_reference(shootout_graph):
    reference_time, reference_counts = _timed_exchange(
        ReferenceNetwork(shootout_graph, rng=0)
    )
    engine_time, engine_counts = _timed_exchange(
        RoundBasedNetwork(shootout_graph, rng=0)
    )
    speedup = reference_time / engine_time
    print(
        f"\nreference: {reference_time:.3f}s  engine: {engine_time:.3f}s"
        f"  speedup: {speedup:.1f}x ({_NUM_NODES} nodes, {_ROUNDS} rounds)"
    )
    # Same seed => bit-identical allocation.
    np.testing.assert_array_equal(reference_counts, engine_counts)
    assert speedup >= 10.0, (
        f"exchange engine only {speedup:.1f}x faster than the reference"
    )


def test_fused_run_not_slower_than_per_round_loop(shootout_graph):
    stepped_time, stepped_counts = _timed_exchange(
        RoundBasedNetwork(shootout_graph, rng=0), stepped=True
    )
    fused_time, fused_counts = _timed_exchange(
        RoundBasedNetwork(shootout_graph, rng=0)
    )
    print(
        f"\nper-round: {stepped_time:.3f}s  fused: {fused_time:.3f}s "
        f"[{resolve_implementation()}] ({_NUM_NODES} nodes, {_ROUNDS} rounds)"
    )
    np.testing.assert_array_equal(stepped_counts, fused_counts)
    # x1.5 timing-noise slack.
    assert fused_time <= stepped_time * 1.5, (
        f"fused run {fused_time / stepped_time:.2f}x slower than the "
        "per-round loop"
    )


def test_jit_speedup_over_numpy(shootout_graph):
    numpy_time, numpy_counts = _timed_exchange(
        RoundBasedNetwork(shootout_graph, rng=0), numpy=True
    )
    jit_time, jit_counts = _timed_exchange(
        RoundBasedNetwork(shootout_graph, rng=0)
    )
    speedup = numpy_time / jit_time
    print(
        f"\nnumpy: {numpy_time:.3f}s  {resolve_implementation()}: "
        f"{jit_time:.3f}s  speedup: {speedup:.1f}x "
        f"({_NUM_NODES} nodes, {_ROUNDS} rounds)"
    )
    np.testing.assert_array_equal(numpy_counts, jit_counts)
    if not NUMBA_AVAILABLE:
        pytest.skip("numba not installed: both runs used the NumPy bodies")
    assert speedup >= 3.0, (
        f"JIT bodies only {speedup:.1f}x faster than the NumPy bodies"
    )


def _bench_exchange(benchmark, graph, *, stepped):
    def exchange():
        return _timed_exchange(
            RoundBasedNetwork(graph, rng=0), stepped=stepped
        )[1]

    counts = benchmark(exchange)
    assert counts.sum() == _NUM_NODES


def test_bench_exchange_per_round(benchmark, shootout_graph):
    """pytest-benchmark timing of the per-round loop (JSON artifact)."""
    _bench_exchange(benchmark, shootout_graph, stepped=True)


def test_bench_exchange_fused(benchmark, shootout_graph):
    """pytest-benchmark timing of the fused ``run(rounds)`` (JSON artifact)."""
    _bench_exchange(benchmark, shootout_graph, stepped=False)
