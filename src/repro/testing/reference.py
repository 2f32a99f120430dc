"""Reference implementations: the test oracles of the fast paths.

Every production path has exactly one implementation; this module
keeps the slow, literal version each fast path must agree with, for
the tests and the speedup benchmarks only (no module under ``repro``
outside ``repro.testing`` imports it):

* :class:`ReferenceNetwork` — the exchange engine's oracle;
* :func:`looped_world_statistics` / :func:`looped_audit` — the
  auditor's per-trial loop (statistically equivalent to both Monte
  Carlo engines, not bit-identical) and :func:`clopper_pearson`, the
  scalar bound the vectorized threshold sweep matches exactly;
* :func:`run_secure_per_message` — the Section 4.4 secure protocol
  message by message, bit-identical to the batched driver;
* :func:`reverse_posterior_argmax` — the collusion attack's scalar
  origin posterior, bit-identical to the batched one.

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
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro.amplification.network_shuffle import DEFAULT_DELTA
from repro.auditing.auditor import (
    AuditResult,
    AuditStatistic,
    GraphLike,
    epsilon_lower_bound,
    weighted_evidence_statistic,
)
from repro.crypto.elgamal import Ciphertext
from repro.crypto.envelope import (
    Envelope,
    open_envelope,
    seal_for_server,
    server_open,
    wrap_for_hop,
)
from repro.crypto.keys import PublicKeyInfrastructure, UserKeyring
from repro.exceptions import ProtocolError, SimulationError, ValidationError
from repro.graphs.dynamic import (
    DynamicGraphSchedule,
    simulate_tokens_on_schedule,
)
from repro.graphs.graph import Graph
from repro.graphs.spectral import stationary_distribution, transition_matrix
from repro.graphs.walks import simulate_token_walks
from repro.ldp.base import LocalRandomizer
from repro.ldp.randomized_response import BinaryRandomizedResponse
from repro.netsim.faults import DropoutModel, NoFaults
from repro.netsim.message import SERVER_ID
from repro.netsim.metrics import EntityMeter, MeterBoard
from repro.netsim.server import Server
from repro.protocols.secure import (
    SecureRunResult,
    _deserialize_value,
    _serialize_value,
)
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs

__all__ = [
    "Node",
    "ReferenceNetwork",
    "clopper_pearson",
    "looped_audit",
    "looped_world_statistics",
    "reference_protocols",
    "reverse_posterior_argmax",
    "run_secure_per_message",
]


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

    def seed_items(self, origins: Sequence[int], items: Sequence[Any]) -> None:
        """Place ``items[i]`` at node ``origins[i]`` (same seeding rule
        as the engine)."""
        if len(origins) != len(items):
            raise ValidationError(
                f"need one origin per item: got {len(origins)} origins "
                f"for {len(items)} items"
            )
        targets = [int(origin) for origin in origins]
        if any(not 0 <= target < self.num_users for target in targets):
            raise ValidationError("token origins out of range")
        if any(node.held or node.inbox for node in self.nodes.values()):
            if self.round_index != self._campaign_start_round:
                raise SimulationError(
                    "cannot seed items mid-exchange; deliver to the server first"
                )
        else:
            self._campaign_start_round = self.round_index
        for target, item in zip(targets, items):
            node = self.nodes[target]
            node.held.append(item)
            node.meter.record_store()

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


# ----------------------------------------------------------------------
# Auditor (Theorem 6.1 distinguishing game)
# ----------------------------------------------------------------------
def clopper_pearson(successes: int, trials: int, *, upper: bool,
                    confidence: float = 0.95) -> float:
    """One-sided Clopper-Pearson bound on a binomial proportion."""
    from scipy import stats

    alpha = 1.0 - confidence
    if upper:
        if successes >= trials:
            return 1.0
        return float(stats.beta.ppf(1.0 - alpha, successes + 1, trials - successes))
    if successes <= 0:
        return 0.0
    return float(stats.beta.ppf(alpha, successes, trials - successes + 1))


def looped_world_statistics(
    graph: GraphLike,
    randomizer: BinaryRandomizedResponse,
    rounds: int,
    trials: int,
    victim: int,
    victim_bit: int,
    statistic: AuditStatistic,
    laziness: float,
    generator: np.random.Generator,
) -> np.ndarray:
    """One world's trial statistics, one trial at a time.

    Same estimator and draw structure as the auditor's tiled engine,
    executed trial by trial.
    """
    n = graph.num_nodes
    starts = np.arange(n, dtype=np.int64)
    dynamic = isinstance(graph, DynamicGraphSchedule)
    out = np.empty(trials, dtype=np.float64)
    for index in range(trials):
        bits = generator.integers(0, 2, size=n)
        bits[victim] = victim_bit
        payloads = randomizer.randomize_batch(bits, generator)
        if dynamic:
            holders = simulate_tokens_on_schedule(
                graph, starts, rounds, laziness=laziness, rng=generator
            )
        else:
            holders = simulate_token_walks(
                graph, starts, rounds, laziness=laziness, rng=generator
            )
        out[index] = statistic(payloads[np.newaxis, :], holders[np.newaxis, :])[0]
    return out


def looped_audit(
    graph: GraphLike,
    epsilon0: float,
    rounds: int,
    *,
    trials: int = 2000,
    delta: float = DEFAULT_DELTA,
    laziness: float = 0.0,
    rng: RngLike = None,
) -> AuditResult:
    """:func:`~repro.auditing.auditor.audit_network_shuffle` on the loop.

    Same game, default statistic and per-world seed streams as the
    auditor, with :func:`looped_world_statistics` as the Monte Carlo
    engine.
    """
    rng_d, rng_d_prime = spawn_rngs(ensure_rng(rng), 2)
    randomizer = BinaryRandomizedResponse(epsilon0)
    statistic = weighted_evidence_statistic(graph, rounds, laziness=laziness)
    stats_d = looped_world_statistics(
        graph, randomizer, rounds, trials, 0, 0, statistic, laziness, rng_d
    )
    stats_d_prime = looped_world_statistics(
        graph, randomizer, rounds, trials, 0, 1, statistic, laziness,
        rng_d_prime,
    )
    eps, threshold = epsilon_lower_bound(stats_d, stats_d_prime, delta)
    return AuditResult(
        epsilon_lower_bound=eps,
        delta=delta,
        trials=trials,
        best_threshold=threshold,
        mechanism=f"network-shuffle:A_all:t={rounds}",
    )


# ----------------------------------------------------------------------
# Secure protocol (Section 4.4)
# ----------------------------------------------------------------------
def run_secure_per_message(
    graph: Graph,
    rounds: int,
    values: Sequence[Any],
    randomizer: Optional[LocalRandomizer] = None,
    *,
    rng: RngLike = None,
) -> SecureRunResult:
    """The secure protocol message by message (dict-of-inboxes loop).

    The oracle of :func:`repro.protocols.secure.run_secure_protocol`:
    same arguments, same seeded payloads, delivery order and meters.
    """
    generator = ensure_rng(rng)
    meters = MeterBoard()

    # --- 1. PKI setup -------------------------------------------------
    pki = PublicKeyInfrastructure(rng=generator)
    keyrings: Dict[int, UserKeyring] = {
        ring.user_id: ring for ring in pki.register_all(graph.num_nodes)
    }

    # --- 2. Randomize, seal, first wrap -------------------------------
    inboxes: Dict[int, List[Envelope]] = {u: [] for u in range(graph.num_nodes)}
    for user in range(graph.num_nodes):
        value = (
            randomizer.randomize(values[user], generator)
            if randomizer is not None
            else values[user]
        )
        sealed = seal_for_server(pki, _serialize_value(value), rng=generator)
        neighbor_ids = graph.neighbors(user)
        if neighbor_ids.size == 0:
            raise ProtocolError(f"user {user} has no neighbors to relay to")
        first_hop = int(neighbor_ids[generator.integers(0, neighbor_ids.size)])
        envelope = wrap_for_hop(pki, first_hop, sealed, rng=generator)
        meters.meter(user).record_send()
        inboxes[first_hop].append(envelope)
        meters.meter(first_hop).record_receive()
        meters.meter(first_hop).record_store()

    # --- 3. Relay rounds ----------------------------------------------
    for _ in range(max(0, rounds - 1)):
        next_inboxes: Dict[int, List[Envelope]] = {
            u: [] for u in range(graph.num_nodes)
        }
        for user in range(graph.num_nodes):
            for envelope in inboxes[user]:
                inner = open_envelope(keyrings[user], envelope)
                # Honest-but-curious check: the relay must NOT be able to
                # read the report — the inner layer is a ciphertext.
                if not isinstance(inner, Ciphertext):
                    raise ProtocolError("relay recovered a non-ciphertext layer")
                neighbor_ids = graph.neighbors(user)
                next_hop = int(
                    neighbor_ids[generator.integers(0, neighbor_ids.size)]
                )
                rewrapped = wrap_for_hop(pki, next_hop, inner, rng=generator)
                meters.meter(user).record_send()
                meters.meter(user).record_release()
                next_inboxes[next_hop].append(rewrapped)
                meters.meter(next_hop).record_receive()
                meters.meter(next_hop).record_store()
        inboxes = next_inboxes

    # --- 4. Final delivery + server decryption ------------------------
    decrypted: List[Any] = []
    delivered_by: List[int] = []
    server_meter = meters.meter(SERVER_ID)
    for user in range(graph.num_nodes):
        for envelope in inboxes[user]:
            inner = open_envelope(keyrings[user], envelope)
            meters.meter(user).record_send()
            meters.meter(user).record_release()
            server_meter.record_receive()
            payload = server_open(pki, inner)
            decrypted.append(_deserialize_value(payload))
            delivered_by.append(user)

    if rounds >= 1 and len(decrypted) != graph.num_nodes:
        raise ProtocolError(
            f"secure A_all lost reports: {len(decrypted)} of {graph.num_nodes}"
        )
    return SecureRunResult(
        decrypted_payloads=decrypted,
        delivered_by=np.asarray(delivered_by, dtype=np.int64),
        meters=meters,
        rounds=rounds,
    )


# ----------------------------------------------------------------------
# Collusion attack (Section 4.5)
# ----------------------------------------------------------------------
def reverse_posterior_argmax(
    graph: Graph, anchor: int, free_rounds: int
) -> int:
    """MAP origin for a walk anchored at ``anchor`` after ``free_rounds``.

    By reversibility of the degree-biased walk, ``P(origin = i | at
    anchor after r rounds)`` is proportional to ``pi_i M^r[i, anchor]``
    under a uniform origin prior; we evolve the reverse walk from the
    anchor and reweight by degrees.  One query at a time: the oracle of
    :func:`repro.netsim.collusion._batched_reverse_posterior_argmax`.
    """
    if free_rounds == 0:
        return anchor
    matrix_t = transition_matrix(graph).T.tocsr()
    distribution = np.zeros(graph.num_nodes)
    distribution[anchor] = 1.0
    # Reverse chain: P(X_0 = i | X_r = a) ∝ pi_i P_i->a^{(r)}; for the
    # degree-biased chain the time reversal equals the forward chain, so
    # evolving from the anchor gives the posterior up to the pi reweight.
    for _ in range(free_rounds):
        distribution = matrix_t @ distribution
    pi = stationary_distribution(graph)
    posterior = distribution * pi
    return int(np.argmax(posterior))
