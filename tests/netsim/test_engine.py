"""The exchange oracle: reference ≡ engine per-round ≡ engine fused.

The exchange engine promises an *exact* RNG contract with the
per-message reference simulator of :mod:`repro.testing.reference` — a
seeded run must produce identical per-round held counts, meters, server
deliveries and drain order whether the engine steps round by round
(the per-round kernel) or runs a whole span at once (the fused kernel,
taken for fault-free static-graph spans) — plus statistical agreement
with the exact distribution evolution of :mod:`repro.graphs.walks`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SimulationError, ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule, evolve_on_schedule
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    random_regular_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.walks import position_distribution, simulate_token_walks
from repro.netsim import kernels
from repro.netsim.engine import ExchangeEngine
from repro.netsim.faults import (
    AdversarialDropout,
    IndependentDropout,
    NoFaults,
)
from repro.netsim.network import RoundBasedNetwork
from repro.protocols.all_protocol import run_all_protocol
from repro.protocols.single_protocol import run_single_protocol
from repro.testing.reference import ReferenceNetwork, reference_protocols


#: The oracle's three exchange paths.  The ids are the engine names the
#: paths replaced (reference = faithful, per-round = vectorized, fused =
#: compiled), which keeps the seeded test ids stable.
ALL_BACKENDS = ("faithful", "vectorized", "compiled")


def _network(path, graph, **kwargs):
    if path == "faithful":
        return ReferenceNetwork(graph, **kwargs)
    return RoundBasedNetwork(graph, **kwargs)


def _advance(network, path, rounds):
    """Run ``rounds`` rounds the way ``path`` drives the exchange: the
    per-round path one kernel call per round, the others through
    ``run_exchange`` (which fuses whenever the engine can)."""
    if path == "vectorized":
        for _ in range(rounds):
            network.run_exchange_round()
    else:
        network.run_exchange(rounds)


def _paired_networks(graph, faults_factory, seed):
    """Identically seeded networks, one per exchange path."""
    nets = []
    for path in ALL_BACKENDS:
        network = _network(path, graph, faults=faults_factory(), rng=seed)
        users = range(graph.num_nodes)
        network.seed_items(users, [("r", i) for i in users])
        nets.append(network)
    return nets


def _assert_meters_equal(reference, other, num_users):
    for user in range(num_users):
        a = reference.meters.meter(user)
        b = other.meters.meter(user)
        assert a.messages_sent == b.messages_sent
        assert a.messages_received == b.messages_received
        assert a.current_items == b.current_items
        assert a.peak_items == b.peak_items
    assert reference.meters.max_peak_items() == other.meters.max_peak_items()
    assert (
        reference.meters.total_messages_sent()
        == other.meters.total_messages_sent()
    )


FAULT_FACTORIES = [
    NoFaults,
    lambda: IndependentDropout(0.25),
    lambda: AdversarialDropout(np.arange(0, 50, 5)),
]


class TestSeededEquivalence:
    @pytest.mark.parametrize("faults_factory", FAULT_FACTORIES)
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_identical_held_counts_every_round(
        self, small_regular, faults_factory, seed
    ):
        nets = _paired_networks(small_regular, faults_factory, seed)
        reference = nets[0]
        for _ in range(10):
            for path, net in zip(ALL_BACKENDS, nets):
                _advance(net, path, 1)
            for other in nets[1:]:
                np.testing.assert_array_equal(
                    reference.held_counts(), other.held_counts()
                )

    @pytest.mark.parametrize("faults_factory", FAULT_FACTORIES)
    def test_identical_meters(self, small_regular, faults_factory):
        nets = _paired_networks(small_regular, faults_factory, 11)
        for path, net in zip(ALL_BACKENDS, nets):
            _advance(net, path, 8)
        for other in nets[1:]:
            _assert_meters_equal(nets[0], other, small_regular.num_nodes)

    def test_identical_server_delivery(self, small_regular):
        nets = _paired_networks(small_regular, NoFaults, 3)
        for path, net in zip(ALL_BACKENDS, nets):
            _advance(net, path, 6)
            net.deliver_to_server()
            assert net.held_counts().sum() == 0
        reference = nets[0]
        for other in nets[1:]:
            assert reference.server.delivered_by == other.server.delivered_by
            assert reference.server.reports == other.server.reports
            _assert_meters_equal(reference, other, small_regular.num_nodes)

    def test_identical_drain_held(self, small_regular):
        nets = _paired_networks(small_regular, NoFaults, 5)
        for path, net in zip(ALL_BACKENDS, nets):
            _advance(net, path, 4)
        reference = nets[0].drain_held()
        for other in nets[1:]:
            assert reference == other.drain_held()

    def test_all_protocol_identical_across_engines(self, small_regular):
        for laziness in (0.0, 0.3):  # fused and per-round kernels
            engine = run_all_protocol(
                small_regular, 7, laziness=laziness, rng=9
            )
            with reference_protocols():
                reference = run_all_protocol(
                    small_regular, 7, laziness=laziness, rng=9
                )
            np.testing.assert_array_equal(
                engine.allocation, reference.allocation
            )
            np.testing.assert_array_equal(
                engine.delivered_by, reference.delivered_by
            )
            assert [r.origin for r in engine.server_reports] == [
                r.origin for r in reference.server_reports
            ]
            assert (
                engine.meters.total_messages_sent()
                == reference.meters.total_messages_sent()
            )

    def test_single_protocol_identical_across_engines(self, small_regular):
        engine = run_single_protocol(small_regular, 7, rng=9)
        with reference_protocols():
            reference = run_single_protocol(small_regular, 7, rng=9)
        np.testing.assert_array_equal(engine.allocation, reference.allocation)
        assert engine.dummy_count == reference.dummy_count
        assert [r.origin for r in engine.server_reports] == [
            r.origin for r in reference.server_reports
        ]

    def test_laziness_equivalent_to_dropout(self, small_regular):
        lazy = run_all_protocol(small_regular, 6, laziness=0.4, rng=2)
        dropout = run_all_protocol(
            small_regular, 6, faults=IndependentDropout(0.4), rng=2
        )
        np.testing.assert_array_equal(lazy.allocation, dropout.allocation)


class TestDistributionMatch:
    """Every exchange path must match the exact walk-engine marginals."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_marginal_matches_evolve_distribution(self, backend):
        graph = random_regular_graph(4, 30, rng=1)
        steps, start, samples = 4, 0, 4000
        exact = position_distribution(graph, start, steps)
        network = _network(backend, graph, rng=77)
        network.seed_items([start] * samples, range(samples))
        _advance(network, backend, steps)
        empirical = network.held_counts() / samples
        # L1 (graph total variation) tolerance ~ O(sqrt(n / samples)).
        assert np.abs(empirical - exact).sum() < 0.15

    def test_engine_marginal_with_laziness(self):
        # Node-level dropout correlates tokens sharing a holder (they
        # stay or move together), so one run never concentrates — the
        # single-token marginal is checked by averaging independent
        # seeded runs instead.
        graph = cycle_graph(11)
        steps, start, runs = 5, 3, 600
        exact = position_distribution(graph, start, steps, laziness=0.3)
        counts = np.zeros(graph.num_nodes)
        for seed in range(runs):
            engine = ExchangeEngine(
                graph, faults=IndependentDropout(0.3), rng=seed
            )
            engine.seed_tokens(np.array([start]))
            engine.run(steps)
            counts += engine.held_counts()
        empirical = counts / runs
        assert np.abs(empirical - exact).sum() < 0.15


class TestVectorizedEngineApi:
    def test_seed_rejects_out_of_range(self, k4):
        engine = ExchangeEngine(k4, rng=0)
        with pytest.raises(ValidationError):
            engine.seed_tokens(np.array([7]))

    def test_seed_rejects_isolated_nodes(self):
        graph = Graph(3, [(0, 1)])  # node 2 is isolated
        engine = ExchangeEngine(graph, rng=0)
        with pytest.raises(ValidationError):
            engine.seed_tokens(np.array([2]))

    def test_negative_rounds_rejected(self, k4):
        engine = ExchangeEngine(k4, rng=0)
        with pytest.raises(SimulationError):
            engine.run(-1)

    def test_trajectories_require_flag(self, k4):
        engine = ExchangeEngine(k4, rng=0)
        engine.seed_tokens(np.arange(4))
        with pytest.raises(SimulationError):
            engine.trajectories()

    def test_trajectories_shape_and_start(self, small_regular):
        engine = ExchangeEngine(
            small_regular, rng=0, record_trajectories=True
        )
        engine.seed_tokens(np.arange(small_regular.num_nodes))
        engine.run(6)
        paths = engine.trajectories()
        assert paths.shape == (small_regular.num_nodes, 7)
        np.testing.assert_array_equal(
            paths[:, 0], np.arange(small_regular.num_nodes)
        )
        np.testing.assert_array_equal(paths[:, -1], engine.token_position)

    def test_tokens_conserved(self, medium_regular):
        engine = ExchangeEngine(medium_regular, rng=0)
        origins = np.repeat(np.arange(medium_regular.num_nodes), 3)
        engine.seed_tokens(origins)
        engine.run(20)
        assert engine.held_counts().sum() == origins.size
        np.testing.assert_array_equal(engine.token_origin, origins)

    def test_double_delivery_is_idempotent(self, k4):
        """A second final delivery must deliver nothing (every path)."""
        for backend in ALL_BACKENDS:
            network = _network(backend, k4, rng=0)
            network.seed_items(range(4), [f"p{i}" for i in range(4)])
            _advance(network, backend, 2)
            network.deliver_to_server()
            network.deliver_to_server()
            assert len(network.server) == 4, backend

    def test_post_delivery_rounds_are_noops_on_all_backends(self):
        """Rounds after final delivery move nothing, meter nothing, and
        keep every path in lockstep (including fault-model draws)."""
        graph = cycle_graph(6)
        nets = {}
        for backend in ALL_BACKENDS:
            net = _network(
                backend, graph, faults=IndependentDropout(0.3), rng=0
            )
            net.seed_items(range(6), range(6))
            _advance(net, backend, 3)
            net.deliver_to_server()
            net.run_exchange_round()
            net.seed_items(range(6), [("n", i) for i in range(6)])
            _advance(net, backend, 2)
            nets[backend] = net
        faithful = nets["faithful"]
        for backend in ("vectorized", "compiled"):
            other = nets[backend]
            np.testing.assert_array_equal(
                faithful.held_counts(), other.held_counts()
            )
            assert (
                faithful.meters.total_messages_sent()
                == other.meters.total_messages_sent()
            )
            for user in range(6):
                a = faithful.meters.meter(user)
                b = other.meters.meter(user)
                assert a.messages_sent == b.messages_sent
                assert a.current_items == b.current_items
                assert a.peak_items == b.peak_items

    def test_reseed_after_delivery_maps_new_payloads(self, k4):
        """A second campaign must not see the first campaign's payloads."""
        network = RoundBasedNetwork(k4, rng=0)
        network.seed_items(range(4), [("first", i) for i in range(4)])
        network.run_exchange(2)
        network.deliver_to_server()
        network.seed_items(range(4), [("second", i) for i in range(4)])
        network.run_exchange(2)
        flat = [p for held in network.drain_held() for p in held]
        assert len(flat) == 4
        assert all(tag == "second" for tag, _ in flat)

    def test_rejected_seed_leaves_payload_mapping_intact(self, k4):
        """A failed seed must not orphan payloads (token-id alignment)."""
        network = RoundBasedNetwork(k4, rng=0)
        network.seed_items([0], ["A"])
        with pytest.raises(ValidationError):
            network.seed_items([99], ["B"])
        network.seed_items([1], ["C"])
        flat = sorted(p for held in network.drain_held() for p in held)
        assert flat == ["A", "C"]

    @pytest.mark.parametrize("backend", ("faithful", "vectorized"))
    def test_seed_items_needs_one_origin_per_item(self, k4, backend):
        network = _network(backend, k4, rng=0)
        with pytest.raises(ValidationError):
            network.seed_items([0, 1], ["A"])
        with pytest.raises(ValidationError):
            network.seed_items([4], ["A"])
        network.seed_items(np.array([2, 2]), ("B", "C"))
        assert network.drain_held() == [[], [], ["B", "C"], []]

    def test_mid_run_seeding_rejected(self, k4):
        """Interleaving seeds with rounds would break the RNG contract."""
        engine = ExchangeEngine(k4, rng=0)
        engine.seed_tokens(np.arange(4))
        engine.seed_tokens(np.arange(2))  # still pre-run: allowed
        engine.run(1)
        with pytest.raises(SimulationError):
            engine.seed_tokens(np.arange(2))

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_mid_run_seed_items_rejected_on_both_backends(self, k4, backend):
        """Every path enforces the seeding rule identically."""
        network = _network(backend, k4, rng=0)
        network.seed_items([0], ["a"])
        network.seed_items([1], ["b"])  # pre-run: allowed
        _advance(network, backend, 1)
        with pytest.raises(SimulationError):
            network.seed_items([2], ["c"])
        # After the final delivery a fresh campaign may seed again.
        network.deliver_to_server()
        network.seed_items([2], ["c"])
        network.run_exchange(1)
        assert network.held_counts().sum() == 1

    def test_reseed_after_drain_drops_old_tokens(self, small_regular):
        """Drained tokens left the network; reseeding must not revive them."""
        engine = ExchangeEngine(small_regular, rng=0)
        engine.seed_tokens(np.arange(small_regular.num_nodes))
        engine.run(3)
        engine.drain()
        engine.seed_tokens(np.arange(10))
        engine.run(2)
        assert engine.held_counts().sum() == 10

    def test_unknown_backend_rejected(self, k4):
        """No option selects an exchange backend any more."""
        with pytest.raises(TypeError):
            RoundBasedNetwork(k4, backend="quantum")

    def test_vector_meter_board_queries(self, k4):
        network = RoundBasedNetwork(k4, rng=0)
        network.seed_items(range(4), range(4))
        network.run_exchange(3)
        board = network.meters
        assert len(board) == 5  # four users + server
        assert 0 in board and -1 in board and 99 not in board
        assert board.total_messages_sent() == 12
        assert board.max_peak_items() >= 1
        with pytest.raises(KeyError):
            board.meter(99)

    def test_deliver_with_selection_vectorized(self, k4):
        network = RoundBasedNetwork(k4, rng=0)
        network.seed_items(range(4), [f"item-{i}" for i in range(4)])
        network.run_exchange(1)
        network.deliver_to_server(select=lambda node, held, rng: held[:1])
        assert len(network.server) <= 4


def _three_phase_schedule(n: int = 50) -> DynamicGraphSchedule:
    return DynamicGraphSchedule([
        random_regular_graph(4, n, rng=0),
        random_regular_graph(6, n, rng=1),
        cycle_graph(n),
    ])


class TestDynamicScheduleEquivalence:
    """The exact RNG contract must survive per-round graph swaps."""

    @pytest.mark.parametrize("faults_factory", FAULT_FACTORIES)
    @pytest.mark.parametrize("seed", [0, 11])
    def test_identical_held_counts_across_swaps(self, faults_factory, seed):
        schedule = _three_phase_schedule()
        nets = _paired_networks(schedule, faults_factory, seed)
        for _ in range(9):
            for path, net in zip(ALL_BACKENDS, nets):
                _advance(net, path, 1)
            for other in nets[1:]:
                np.testing.assert_array_equal(
                    nets[0].held_counts(), other.held_counts()
                )

    def test_identical_meters_and_delivery_across_swaps(self):
        schedule = _three_phase_schedule()
        nets = _paired_networks(schedule, NoFaults, 5)
        for path, net in zip(ALL_BACKENDS, nets):
            _advance(net, path, 7)
            net.deliver_to_server()
        reference = nets[0]
        for other in nets[1:]:
            _assert_meters_equal(reference, other, schedule.num_nodes)
            assert reference.server.delivered_by == other.server.delivered_by
            assert reference.server.reports == other.server.reports

    def test_drain_then_reseed_across_swap_boundary(self):
        """A second campaign seeded mid-schedule must stay in lockstep:
        the reseed validates against (and the next round walks) the
        topology in force at that round, on every path."""
        schedule = _three_phase_schedule()
        nets = {}
        for backend in ALL_BACKENDS:
            net = _network(
                backend, schedule, faults=IndependentDropout(0.2), rng=3
            )
            net.seed_items(range(50), [("first", i) for i in range(50)])
            _advance(net, backend, 2)    # stops on the swap boundary
            net.deliver_to_server()
            net.seed_items(range(50), [("second", i) for i in range(50)])
            _advance(net, backend, 4)    # crosses two more swaps
            nets[backend] = net
        faithful = nets["faithful"]
        for backend in ("vectorized", "compiled"):
            np.testing.assert_array_equal(
                faithful.held_counts(), nets[backend].held_counts()
            )
        reference = faithful.drain_held()
        for backend in ("vectorized", "compiled"):
            assert reference == nets[backend].drain_held()

    def test_schedule_of_one_matches_static_graph(self, small_regular):
        """A single-graph schedule is bit-identical to the static run —
        the swap machinery consumes no randomness, and the static run's
        fused kernel matches the schedule's per-round kernel."""
        static = RoundBasedNetwork(small_regular, rng=9)
        dynamic = RoundBasedNetwork(
            DynamicGraphSchedule([small_regular]), rng=9
        )
        for net in (static, dynamic):
            users = range(small_regular.num_nodes)
            net.seed_items(users, users)
            net.run_exchange(6)
        np.testing.assert_array_equal(
            static.held_counts(), dynamic.held_counts()
        )
        assert static.drain_held() == dynamic.drain_held()

    def test_engine_tracks_scheduled_topology(self):
        schedule = _three_phase_schedule()
        engine = ExchangeEngine(schedule, rng=0)
        engine.seed_tokens(np.arange(50))
        for round_index in range(5):
            engine.run_round()
            assert engine.graph is schedule.graph_at(round_index)

    def test_engine_marginal_matches_exact_schedule_evolution(self):
        schedule = _three_phase_schedule()
        samples = 4000
        engine = ExchangeEngine(schedule, rng=123)
        engine.seed_tokens(np.zeros(samples, dtype=np.int64))
        engine.run(5)
        empirical = engine.held_counts() / samples
        initial = np.zeros(50)
        initial[0] = 1.0
        exact = evolve_on_schedule(schedule, initial, 5)
        assert np.abs(empirical - exact).sum() < 0.15

    def test_set_graph_rejects_node_count_mismatch(self, small_regular):
        engine = ExchangeEngine(small_regular, rng=0)
        with pytest.raises(ValidationError):
            engine.set_graph(complete_graph(small_regular.num_nodes + 1))
        network = ReferenceNetwork(small_regular, rng=0)
        with pytest.raises(ValidationError):
            network.set_graph(complete_graph(small_regular.num_nodes + 1))

    def test_set_graph_rebinds_both_backends(self, small_regular):
        replacement = complete_graph(small_regular.num_nodes)
        for backend in ("faithful", "vectorized"):
            network = _network(backend, small_regular, rng=0)
            network.set_graph(replacement)
            assert network.graph is replacement
            if backend == "faithful":
                np.testing.assert_array_equal(
                    network.nodes[0].neighbors, replacement.neighbors(0)
                )

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_isolated_node_under_swap_raises(self, backend):
        """An item stranded on a node the new topology isolates must
        fail loudly — with the same exception type on every path — not
        hop through a garbage CSR offset."""
        path = Graph(3, [(0, 1), (1, 2)])
        isolating = Graph(3, [(0, 2)])  # node 1 isolated
        schedule = DynamicGraphSchedule([path, isolating])
        network = _network(backend, schedule, rng=0)
        network.seed_items([0], ["item"])
        _advance(network, backend, 1)  # node 0's only neighbor is 1
        np.testing.assert_array_equal(network.held_counts(), [0, 1, 0])
        with pytest.raises(SimulationError):
            _advance(network, backend, 1)  # round 1 isolates node 1

    def test_seed_validates_against_scheduled_topology(self):
        """Reseeding after a drain checks isolation against the graph in
        force at the seeding round, not graph 0."""
        full = Graph(2, [(0, 1)])
        isolating = Graph(2, [])
        schedule = DynamicGraphSchedule(
            [full, isolating], selector=lambda r: 0 if r < 1 else 1
        )
        engine = ExchangeEngine(schedule, rng=0)
        engine.seed_tokens(np.array([0]))  # valid on graph 0
        engine.run_round()
        engine.drain()
        with pytest.raises(ValidationError):
            engine.seed_tokens(np.array([0]))  # round 1 isolates node 0


class _PinnedRng(np.random.Generator):
    """A real Generator whose uniform doubles are pinned to one value."""

    def __init__(self, value: float):
        super().__init__(np.random.PCG64(0))
        self._value = value

    def random(self, size=None, dtype=np.float64, out=None):
        if size is None:
            return self._value
        return np.full(size, self._value)


class TestOffsetBoundaryClamp:
    """floor(u * degree) must never index past the neighbor slice.

    A conforming float64 draw (u <= 1 - 2^-53) provably cannot reach
    offset == degree, so the top-of-range stub asserts the exact
    last-neighbor mapping; the u == 1.0 stub models a contract-violating
    generator (custom RngLike subclass, float32 upstream) and fails
    without the clamp — the regression the fix guards.
    """

    @pytest.mark.parametrize("body", ["resolved", "loop"])
    @pytest.mark.parametrize("value", [1.0 - 2.0**-53, 1.0])
    def test_vectorized_boundary_draw_hits_last_neighbor(self, body, value):
        """The per-round kernel clamps, in the resolved body and in the
        numba loop run as plain Python."""
        graph = cycle_graph(7)
        last = graph.num_nodes - 1  # pre-fix, u=1.0 indexes past indices
        engine = ExchangeEngine(graph, rng=_PinnedRng(value))
        if body == "loop":
            engine._round_kernel = kernels._round_loop
        engine.seed_tokens(np.array([last]))
        engine.run_round()
        assert int(engine.token_position[0]) == int(graph.neighbors(last)[-1])

    @pytest.mark.parametrize("value", [1.0 - 2.0**-53, 1.0])
    def test_compiled_fused_boundary_draw_hits_last_neighbor(self, value):
        """The fused multi-round kernel applies the same clamp."""
        graph = cycle_graph(7)
        last = graph.num_nodes - 1
        engine = ExchangeEngine(graph, rng=_PinnedRng(value))
        engine.seed_tokens(np.array([last]))
        engine.run(3)  # static + NoFaults: takes the fused kernel
        walked = last
        for _ in range(3):
            walked = int(graph.neighbors(walked)[-1])
        assert int(engine.token_position[0]) == walked

    @pytest.mark.parametrize("value", [1.0 - 2.0**-53, 1.0])
    def test_faithful_boundary_draw_hits_last_neighbor(self, value):
        graph = cycle_graph(7)
        network = ReferenceNetwork(graph, rng=0)
        node = network.nodes[0]
        assert node.sample_neighbor(_PinnedRng(value)) == int(
            graph.neighbors(0)[-1]
        )

    @pytest.mark.parametrize("value", [1.0 - 2.0**-53, 1.0])
    def test_token_walk_boundary_draw_hits_last_neighbor(self, value):
        graph = cycle_graph(7)
        last = graph.num_nodes - 1
        finals = simulate_token_walks(
            graph, np.array([last]), 1, rng=_PinnedRng(value)
        )
        assert int(finals[0]) == int(graph.neighbors(last)[-1])
