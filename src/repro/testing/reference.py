"""The per-message reference simulator: the exchange engine's oracle.

:class:`ReferenceNetwork` realizes Algorithms 1 and 2 literally — one
Python :class:`Node` per user, one scalar draw per message — with the
interface of :class:`repro.netsim.network.RoundBasedNetwork`.  It is
O(n · items) interpreter work per round, far too slow for production
runs, and exists so the tests can demand that the array engine
reproduce it bit for bit: seeded held counts, meters, server deliveries
and drain order, across fault models, schedules and drain→reseed.

Shared RNG contract: each round draws the fault model's offline mask,
then one uniform double per message held by an online node — ascending
holder id, inbox arrival order within a holder — mapped to the neighbour
``floor(u * degree)`` (see :mod:`repro.netsim.engine`).

:func:`reference_protocols` runs the protocol runners of
:mod:`repro.protocols` on this simulator instead of the engine, so whole
protocol results can be compared too.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

import numpy as np

from repro.exceptions import SimulationError, ValidationError
from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.graph import Graph
from repro.netsim.faults import DropoutModel, NoFaults
from repro.netsim.message import SERVER_ID
from repro.netsim.metrics import EntityMeter, MeterBoard
from repro.netsim.server import Server
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["Node", "ReferenceNetwork", "reference_protocols"]


class Node:
    """A user/client: an id, a neighbor list, an inbox, and held items.

    The node itself is policy-free — protocol logic lives in
    :mod:`repro.protocols`; the node only tracks state and meters.
    """

    def __init__(self, node_id: int, neighbors: np.ndarray, meter: EntityMeter):
        self.node_id = int(node_id)
        self.neighbors = np.asarray(neighbors, dtype=np.int64)
        self.meter = meter
        self.inbox: List[Any] = []
        self.held: List[Any] = []
        self.online = True

    def receive(self, payload: Any) -> None:
        """Accept a payload into the inbox (delivered next round)."""
        self.inbox.append(payload)
        self.meter.record_receive()
        self.meter.record_store()

    def collect_inbox(self) -> None:
        """Move inbox contents into held items (start-of-round step)."""
        self.held.extend(self.inbox)
        self.inbox.clear()

    def take_all(self) -> List[Any]:
        """Remove and return all held items."""
        items, self.held = self.held, []
        self.meter.record_release(len(items))
        return items

    def sample_neighbor(self, rng: np.random.Generator) -> int:
        """A uniformly random neighbor (the walk's next hop), drawn as
        ``floor(u * degree)`` from one uniform double."""
        if self.neighbors.size == 0:
            # Same exception type as the engine's isolated-holder guard.
            raise SimulationError(f"node {self.node_id} has no neighbors")
        # Clamp the boundary: floor(u * degree) stays below degree for
        # every conforming float64 draw, but a contract-violating u
        # (e.g. a stubbed generator yielding 1.0) would index one past
        # the slice.  Identical to the engine's clamp.
        offset = min(int(rng.random() * self.neighbors.size), self.neighbors.size - 1)
        return int(self.neighbors[offset])

    def __repr__(self) -> str:
        return (
            f"Node(id={self.node_id}, degree={self.neighbors.size}, "
            f"held={len(self.held)}, online={self.online})"
        )


class ReferenceNetwork:
    """Per-message realization of :class:`~repro.netsim.network.RoundBasedNetwork`."""

    def __init__(
        self,
        graph: Union[Graph, DynamicGraphSchedule],
        *,
        faults: Optional[DropoutModel] = None,
        rng: RngLike = None,
    ):
        if isinstance(graph, DynamicGraphSchedule):
            self.schedule: Optional[DynamicGraphSchedule] = graph
            self.graph = graph.graph_at(0)
        else:
            self.schedule = None
            self.graph = graph
        self.faults = faults if faults is not None else NoFaults()
        self.rng = ensure_rng(rng)
        self.round_index = 0
        self._campaign_start_round = 0
        self.meters = MeterBoard()
        self.nodes: Dict[int, Node] = {
            node_id: Node(
                node_id,
                self.graph.neighbors(node_id),
                self.meters.meter(node_id),
            )
            for node_id in range(self.graph.num_nodes)
        }
        self.server = Server(self.meters.meter(SERVER_ID))

    @property
    def num_users(self) -> int:
        """Number of user nodes."""
        return self.graph.num_nodes

    def seed_items(self, items_per_node: Dict[int, List[Any]]) -> None:
        """Place initial items into nodes (same seeding rule as the engine)."""
        if any(node.held or node.inbox for node in self.nodes.values()):
            if self.round_index != self._campaign_start_round:
                raise SimulationError(
                    "cannot seed items mid-exchange; deliver to the server first"
                )
        else:
            self._campaign_start_round = self.round_index
        for node_id, items in items_per_node.items():
            node = self.nodes[node_id]
            node.held.extend(items)
            node.meter.record_store(len(items))

    def set_graph(self, graph: Graph) -> None:
        """Rebind every node's neighbor list (consumes no randomness)."""
        if graph.num_nodes != self.graph.num_nodes:
            raise ValidationError(
                f"replacement graph has {graph.num_nodes} nodes, "
                f"network has {self.graph.num_nodes}"
            )
        self.graph = graph
        for node_id, node in self.nodes.items():
            node.neighbors = graph.neighbors(node_id)

    def run_exchange_round(self) -> None:
        """One synchronous round, message by message."""
        if self.schedule is not None:
            graph = self.schedule.graph_at(self.round_index)
            if graph is not self.graph:
                self.set_graph(graph)
        offline = self.faults.offline_mask(
            self.num_users, self.round_index, self.rng
        )
        sends: List[tuple[int, Any]] = []
        for node_id, node in self.nodes.items():
            node.online = not bool(offline[node_id])
            if not node.online:
                continue
            for item in node.take_all():
                recipient = node.sample_neighbor(self.rng)
                # An offline recipient still receives: the message waits
                # in her inbox (she is unavailable to *forward*, matching
                # the lazy-walk model).
                node.meter.record_send()
                sends.append((recipient, item))
        for recipient, item in sends:
            self.nodes[recipient].receive(item)
        for node in self.nodes.values():
            node.collect_inbox()
        self.round_index += 1

    def run_exchange(self, rounds: int) -> None:
        """Run ``rounds`` exchange rounds."""
        if rounds < 0:
            raise SimulationError(f"rounds must be non-negative, got {rounds}")
        for _ in range(rounds):
            self.run_exchange_round()

    def deliver_to_server(
        self,
        select: Optional[Callable[[int, List[Any], np.random.Generator], List[Any]]] = None,
    ) -> None:
        """Final round: each user sends her (selected) items to the server."""
        for node_id in range(self.num_users):
            node = self.nodes[node_id]
            held = node.take_all()
            chosen = held if select is None else select(node_id, held, self.rng)
            for item in chosen:
                node.meter.record_send()
                self.server.deliver(node_id, item)

    def drain_held(self) -> List[List[Any]]:
        """Remove and return every node's held items, indexed by node."""
        return [self.nodes[user].take_all() for user in range(self.num_users)]

    def held_counts(self) -> np.ndarray:
        """Current items held per user — the allocation vector ``L``."""
        counts = np.zeros(self.num_users, dtype=np.int64)
        for node_id, node in self.nodes.items():
            counts[node_id] = len(node.held)
        return counts


@contextmanager
def reference_protocols() -> Iterator[None]:
    """Run :mod:`repro.protocols`' runners on :class:`ReferenceNetwork`.

    Swaps the network class the protocol modules construct for as long
    as the context is open.  Not thread-safe: test use only.
    """
    from repro.protocols import all_protocol, single_protocol

    modules = (all_protocol, single_protocol)
    saved = [module.RoundBasedNetwork for module in modules]
    for module in modules:
        module.RoundBasedNetwork = ReferenceNetwork
    try:
        yield
    finally:
        for module, network_cls in zip(modules, saved):
            module.RoundBasedNetwork = network_cls
