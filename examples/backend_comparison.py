#!/usr/bin/env python
"""Reference vs engine: one seeded exchange, three drives, identical bits.

The exchange engine is the only production path; the per-message
reference simulator (:mod:`repro.testing.reference`) replays the
paper's Algorithm 1 literally and serves as its oracle.  This example
runs one seeded A_all campaign three ways — on the reference, on the
engine stepped round by round (per-round kernel), and on the engine in
one span (fused kernel) — checks that allocations, meters and server
deliveries agree bit for bit, and prints the wall-clock alongside which
kernel bodies (numba or NumPy) this process resolved.

Run:  python examples/backend_comparison.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.graphs.generators import random_regular_graph
from repro.netsim.kernels import backend_info
from repro.netsim.network import RoundBasedNetwork
from repro.testing.reference import ReferenceNetwork

NUM_USERS = 5_000
ROUNDS = 12
SEED = 7


def drive(network, stepped: bool):
    users = range(NUM_USERS)
    network.seed_items(users, [("report", user) for user in users])
    start = time.perf_counter()
    if stepped:
        for _ in range(ROUNDS):
            network.run_exchange_round()
    else:
        network.run_exchange(ROUNDS)
    elapsed = time.perf_counter() - start
    allocation = network.held_counts()
    network.deliver_to_server()
    return elapsed, allocation, network


def main() -> None:
    graph = random_regular_graph(8, NUM_USERS, rng=SEED)
    info = backend_info()
    print(f"kernels: {info['kernels']} "
          f"(numba available: {info['numba_available']})")

    drives = {
        "reference": drive(ReferenceNetwork(graph, rng=SEED), stepped=True),
        "per-round": drive(RoundBasedNetwork(graph, rng=SEED), stepped=True),
        "fused": drive(RoundBasedNetwork(graph, rng=SEED), stepped=False),
    }
    for name, (elapsed, _, _) in drives.items():
        print(f"{name:>10}: {elapsed * 1000:8.1f} ms")

    # The RNG contract makes the paths interchangeable, not merely
    # statistically similar: same seed -> same bits on every path.
    _, allocation, reference = drives["reference"]
    for name in ("per-round", "fused"):
        _, other_allocation, other = drives[name]
        np.testing.assert_array_equal(allocation, other_allocation)
        assert other.server.delivered_by == reference.server.delivered_by, name
        assert other.server.reports == reference.server.reports, name
        assert (
            other.meters.total_messages_sent()
            == reference.meters.total_messages_sent()
        ), name
    print(f"reference, per-round and fused drives bit-identical "
          f"({NUM_USERS} users, {ROUNDS} rounds)")


if __name__ == "__main__":
    main()
