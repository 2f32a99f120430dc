"""Secure-protocol realization shootout: batched envelopes vs the loop.

The batched driver (``run_secure_protocol``) and the per-message
reference (``repro.testing.reference.run_secure_per_message``) perform
the identical cryptographic work (modular exponentiation dominates), so
the batched driver's win is bounded by the per-message Python overhead
it removes — dict-of-inboxes traffic, per-envelope PKI lookups, and
per-message meter calls.  The bench asserts the batched driver
reproduces the loop's outputs exactly and is not slower; the measured
ratio is printed for the trajectory store.
"""

from __future__ import annotations

import time

import numpy as np

from repro.graphs.generators import random_regular_graph
from repro.protocols.secure import run_secure_protocol
from repro.testing.reference import run_secure_per_message

_NUM_USERS = 128
_DEGREE = 6
_ROUNDS = 6


def _timed_secure(runner):
    graph = random_regular_graph(_DEGREE, _NUM_USERS, rng=0)
    values = list(range(_NUM_USERS))
    start = time.perf_counter()
    result = runner(graph, _ROUNDS, values, rng=0)
    return time.perf_counter() - start, result


def test_batched_secure_not_slower_and_identical():
    loop_time, loop = _timed_secure(run_secure_per_message)
    batched_time, batched = _timed_secure(run_secure_protocol)
    ratio = loop_time / batched_time
    print(
        f"\nper-message: {loop_time:.3f}s  batched: {batched_time:.3f}s  "
        f"ratio: {ratio:.2f}x ({_NUM_USERS} users, {_ROUNDS} rounds)"
    )
    assert batched.decrypted_payloads == loop.decrypted_payloads
    np.testing.assert_array_equal(batched.delivered_by, loop.delivered_by)
    # Modpow dominates both modes; demand parity, not a fixed speedup.
    assert batched_time <= loop_time * 1.25, (
        f"batched secure protocol {1 / ratio:.2f}x slower than the loop"
    )


def test_bench_secure_batched(benchmark):
    """pytest-benchmark timing of the batched secure run (JSON artifact)."""
    graph = random_regular_graph(_DEGREE, _NUM_USERS, rng=0)
    values = list(range(_NUM_USERS))

    def secure():
        return run_secure_protocol(graph, _ROUNDS, values, rng=0)

    result = benchmark.pedantic(secure, rounds=3, iterations=1)
    assert result.num_reports == _NUM_USERS
