"""The synchronous round-based network.

One round = every online node forwards each held item to a uniformly
random neighbor; deliveries land in inboxes and become visible at the
start of the next round.  :class:`RoundBasedNetwork` pairs the
:class:`~repro.netsim.engine.ExchangeEngine`, which moves token ids, with
the payloads those ids stand for and the server that receives them.

A seeded run reproduces the per-message reference simulator of
:mod:`repro.testing.reference` bit for bit — held counts, meters and
server deliveries — which is how the tests check the engine (see
``tests/netsim/test_engine.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from repro.graphs.dynamic import DynamicGraphSchedule
from repro.graphs.graph import Graph
from repro.netsim.engine import ExchangeEngine
from repro.netsim.faults import DropoutModel
from repro.netsim.server import Server
from repro.utils.rng import RngLike, ensure_rng


class RoundBasedNetwork:
    """Simulated network of ``graph.num_nodes`` users plus one server.

    Parameters
    ----------
    graph:
        The communication graph, or a
        :class:`~repro.graphs.dynamic.DynamicGraphSchedule` for a
        time-varying topology; the engine binds the scheduled graph for
        each round before any randomness is drawn.
    faults:
        Dropout model; offline holders keep their items for the round.
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        graph: Union[Graph, DynamicGraphSchedule],
        *,
        faults: Optional[DropoutModel] = None,
        rng: RngLike = None,
    ):
        self.rng = ensure_rng(rng)
        self.engine = ExchangeEngine(graph, faults=faults, rng=self.rng)
        self.meters = self.engine.meters
        self.server = Server(self.meters.server_meter)
        self._payloads: List[Any] = []

    @property
    def graph(self) -> Graph:
        """The topology currently in force (tracks the schedule)."""
        return self.engine.graph

    @property
    def num_users(self) -> int:
        """Number of user nodes."""
        return self.engine.num_users

    @property
    def round_index(self) -> int:
        """Number of exchange rounds executed so far."""
        return self.engine.round_index

    # ------------------------------------------------------------------
    # Seeding
    # ------------------------------------------------------------------
    def seed_items(self, items_per_node: Dict[int, List[Any]]) -> None:
        """Place initial items (randomized reports) into nodes.

        Seeding is only allowed before the campaign's first exchange
        round (repeated calls are fine) or after the final delivery —
        interleaving seeds with rounds would scramble the inbox-arrival
        order the exact RNG contract depends on.
        """
        drained = self.engine.drained
        origins: List[int] = []
        payloads: List[Any] = []
        for node_id, items in items_per_node.items():
            origins.extend([node_id] * len(items))
            payloads.extend(items)
        # Let the engine validate (and raise) before touching _payloads,
        # or a rejected seed would shift the token-id -> payload mapping
        # for every later campaign.
        self.engine.seed_tokens(np.asarray(origins, dtype=np.int64))
        if drained:
            # The engine restarts token ids from 0 after a final
            # delivery; drop the delivered campaign's payloads so the
            # mapping stays aligned.
            self._payloads = []
        self._payloads.extend(payloads)

    # ------------------------------------------------------------------
    # Exchange rounds
    # ------------------------------------------------------------------
    def set_graph(self, graph: Graph) -> None:
        """Swap the communication graph in place (same node count).

        Consumes no randomness, so seeded runs stay bit-identical
        through a swap.  On a schedule-constructed network the schedule
        owns the topology — it rebinds ``graph_at(round_index)`` before
        each round, so a manual swap lasts only until the next round's
        sync.  Encode persistent interventions in the schedule's
        selector instead.
        """
        self.engine.set_graph(graph)

    def run_exchange_round(self) -> None:
        """One synchronous exchange round (lines 4-8 of Algorithms 1/2).

        Every online node sends each held item to a uniformly random
        neighbor; offline nodes keep their items (lazy-walk fault model).
        """
        self.engine.run_round()

    def run_exchange(self, rounds: int) -> None:
        """Run ``rounds`` exchange rounds.

        The engine may fuse the span into one kernel call; results are
        identical to looping :meth:`run_exchange_round`.
        """
        self.engine.run(rounds)

    # ------------------------------------------------------------------
    # Final delivery & queries
    # ------------------------------------------------------------------
    def deliver_to_server(
        self,
        select: Optional[Callable[[int, List[Any], np.random.Generator], List[Any]]] = None,
    ) -> None:
        """Final round: each user sends her (selected) items to the server.

        ``select(node_id, held_items, rng)`` chooses what to deliver;
        the default delivers everything (the "all" protocol).  The
        selection sees the full held list so the "single" protocol can
        sample or substitute a dummy.
        """
        if select is None:
            self.meters.messages_sent += self.engine.held_counts()
            order = self.engine.drain()
            senders = self.engine.token_position[order]
            payloads = [self._payloads[token] for token in order]
            self.server.deliver_many(senders.tolist(), payloads)
            return
        for node_id, held in enumerate(self.drain_held()):
            for item in select(node_id, held, self.rng):
                self.meters.messages_sent[node_id] += 1
                self.server.deliver(node_id, item)

    def drain_held(self) -> List[List[Any]]:
        """Remove and return every node's held items, indexed by node.

        Item order within a node is the per-message inbox order, so
        seeded runs drain identically to the reference simulator.
        """
        order = self.engine.drain()
        positions = self.engine.token_position
        held_lists: List[List[Any]] = [[] for _ in range(self.num_users)]
        for token in order:
            held_lists[positions[token]].append(self._payloads[token])
        return held_lists

    def held_counts(self) -> np.ndarray:
        """Current items held per user — the allocation vector ``L``."""
        return self.engine.held_counts()
