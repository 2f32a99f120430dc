"""Tests for the encrypted (Section 4.4) protocol realization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ProtocolError
from repro.graphs.generators import complete_graph, random_regular_graph
from repro.graphs.graph import Graph
from repro.ldp.randomized_response import BinaryRandomizedResponse
from repro.netsim.message import SERVER_ID
from repro.protocols.secure import run_secure_protocol
from repro.testing.reference import run_secure_per_message


class TestSecureProtocol:
    def test_all_reports_decrypted(self):
        graph = random_regular_graph(4, 20, rng=0)
        values = list(range(20))
        result = run_secure_protocol(graph, 4, values, rng=0)
        assert result.num_reports == 20
        assert sorted(result.decrypted_payloads) == values

    def test_randomizer_applied(self):
        graph = complete_graph(12)
        result = run_secure_protocol(
            graph, 3, [0] * 12, BinaryRandomizedResponse(0.5), rng=0
        )
        assert set(result.decrypted_payloads).issubset({0, 1})

    def test_payload_types_roundtrip(self):
        graph = complete_graph(6)
        values = [1, 2.5, "text", [1, 2], {"k": 1}, None]
        result = run_secure_protocol(graph, 2, values, rng=0)
        assert len(result.decrypted_payloads) == 6

    def test_meters_track_traffic(self):
        graph = random_regular_graph(4, 16, rng=0)
        result = run_secure_protocol(graph, 5, list(range(16)), rng=0)
        sent = [result.meters.meter(u).messages_sent for u in range(16)]
        # ~1 per round per user on average (token conservation).
        assert np.mean(sent) == pytest.approx(5.0, rel=0.5)

    def test_delivered_by_valid_users(self):
        graph = random_regular_graph(4, 16, rng=0)
        result = run_secure_protocol(graph, 3, list(range(16)), rng=0)
        assert result.delivered_by.min() >= 0
        assert result.delivered_by.max() < 16

    def test_value_count_mismatch(self):
        graph = complete_graph(5)
        with pytest.raises(ProtocolError):
            run_secure_protocol(graph, 2, [1, 2], rng=0)

    def test_deterministic(self):
        graph = complete_graph(8)
        a = run_secure_protocol(graph, 3, list(range(8)), rng=9)
        b = run_secure_protocol(graph, 3, list(range(8)), rng=9)
        assert a.decrypted_payloads == b.decrypted_payloads
        np.testing.assert_array_equal(a.delivered_by, b.delivered_by)


class TestBatchedParity:
    """The batched driver must reproduce the per-message loop exactly.

    Trajectories, delivery order, payloads, and every meter depend only
    on the randomness schedule Pass A replays — not on the throwaway
    encryption ephemerals — so a seeded batched run is message-for-
    message identical to the reference realization
    (:func:`repro.testing.reference.run_secure_per_message`).
    """

    @pytest.mark.parametrize(
        ("num_nodes", "rounds", "seed"),
        [(8, 0, 0), (8, 1, 1), (12, 4, 2), (20, 7, 3)],
    )
    def test_outputs_identical(self, num_nodes, rounds, seed):
        graph = random_regular_graph(4, num_nodes, rng=seed)
        values = list(range(num_nodes))
        loop = run_secure_per_message(graph, rounds, values, rng=seed)
        batched = run_secure_protocol(graph, rounds, values, rng=seed)
        assert batched.decrypted_payloads == loop.decrypted_payloads
        np.testing.assert_array_equal(
            batched.delivered_by, loop.delivered_by
        )

    @pytest.mark.parametrize("rounds", [1, 5])
    def test_meters_identical(self, rounds):
        graph = random_regular_graph(4, 16, rng=7)
        values = list(range(16))
        loop = run_secure_per_message(graph, rounds, values, rng=11)
        batched = run_secure_protocol(graph, rounds, values, rng=11)
        for user in list(range(16)) + [SERVER_ID]:
            a = loop.meters.meter(user)
            b = batched.meters.meter(user)
            assert a.messages_sent == b.messages_sent, user
            assert a.messages_received == b.messages_received, user
            assert a.current_items == b.current_items, user
            assert a.peak_items == b.peak_items, user

    def test_randomizer_draws_in_same_order(self):
        graph = complete_graph(10)
        randomizer = BinaryRandomizedResponse(0.6)
        loop = run_secure_per_message(graph, 3, [0] * 10, randomizer, rng=5)
        batched = run_secure_protocol(graph, 3, [0] * 10, randomizer, rng=5)
        assert batched.decrypted_payloads == loop.decrypted_payloads

    def test_no_neighbor_raises_in_both_modes(self):
        graph = Graph(3, [(0, 1)])  # user 2 cannot relay
        for runner in (run_secure_per_message, run_secure_protocol):
            with pytest.raises(ProtocolError):
                runner(graph, 2, [1, 2, 3], rng=0)

    def test_batched_deterministic(self):
        graph = random_regular_graph(4, 12, rng=1)
        a = run_secure_protocol(graph, 3, list(range(12)), rng=4)
        b = run_secure_protocol(graph, 3, list(range(12)), rng=4)
        assert a.decrypted_payloads == b.decrypted_payloads
        np.testing.assert_array_equal(a.delivered_by, b.delivered_by)

    def test_batched_option_refused(self):
        """One realization: no option selects the per-message loop."""
        graph = random_regular_graph(4, 8, rng=0)
        for batched in (False, True):
            with pytest.raises(TypeError, match="batched"):
                run_secure_protocol(
                    graph, 2, list(range(8)), rng=0, batched=batched
                )
